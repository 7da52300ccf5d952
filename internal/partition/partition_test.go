package partition

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/vec"
)

func unitGrid(t *testing.T, r int) *Grid {
	t.Helper()
	g, err := NewGrid(vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), r, r, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), 0, 4, 4); err == nil {
		t.Fatal("zero-dimension grid accepted")
	}
	if _, err := NewGrid(vec.Box{}, 4, 4, 4); err == nil {
		t.Fatal("degenerate domain accepted")
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := unitGrid(t, 5)
	for idx := 0; idx < g.NumClusters(); idx++ {
		i, j, k := g.Coords(idx)
		if g.Index(i, j, k) != idx {
			t.Fatalf("round trip failed at %d", idx)
		}
	}
}

func TestClusterOfMatchesBoxOf(t *testing.T) {
	g := unitGrid(t, 4)
	f := func(x, y, z float64) bool {
		fold := func(v float64) float64 {
			v = math.Abs(math.Mod(v, 1))
			return v
		}
		p := vec.V3{X: fold(x), Y: fold(y), Z: fold(z)}
		// Cluster (i, j, k) spans [i/4, (i+1)/4) × [j/4, (j+1)/4) × [k/4, (k+1)/4).
		i, j, k := g.Coords(g.ClusterOf(p))
		lo := vec.V3{X: float64(i) / 4, Y: float64(j) / 4, Z: float64(k) / 4}
		return vec.NewBox(lo, lo.Add(vec.V3{X: 0.25, Y: 0.25, Z: 0.25})).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterOfClampsOutside(t *testing.T) {
	g := unitGrid(t, 4)
	if got := g.ClusterOf(vec.V3{X: -5, Y: 0.1, Z: 0.1}); got != g.Index(0, 0, 0) {
		t.Fatalf("below-domain point went to %d", got)
	}
	if got := g.ClusterOf(vec.V3{X: 7, Y: 7, Z: 7}); got != g.Index(3, 3, 3) {
		t.Fatalf("above-domain point went to %d", got)
	}
}

func TestBucketPartitionsAll(t *testing.T) {
	g := unitGrid(t, 8)
	s := dist.Uniform(5000, g.Domain, 1)
	buckets := g.Bucket(s.Particles)
	total := 0
	for c, b := range buckets {
		total += len(b)
		for _, p := range b {
			if g.ClusterOf(p.Pos) != c {
				t.Fatalf("particle in wrong bucket")
			}
		}
	}
	if total != 5000 {
		t.Fatalf("buckets hold %d particles", total)
	}
}

func TestMortonOrderIsPermutationAndLocal(t *testing.T) {
	g := unitGrid(t, 4)
	order := g.MortonOrder()
	seen := make([]bool, g.NumClusters())
	for _, c := range order {
		if seen[c] {
			t.Fatalf("cluster %d repeated", c)
		}
		seen[c] = true
	}
	// Morton order visits the first octant's 2×2×2 block before touching
	// the farthest corner cluster.
	posOf := make(map[int]int)
	for pos, c := range order {
		posOf[c] = pos
	}
	if posOf[g.Index(3, 3, 3)] < posOf[g.Index(1, 1, 1)] {
		t.Fatal("Morton order not hierarchical")
	}
}

func TestHilbertOrderIsPermutationAndContiguous(t *testing.T) {
	g := unitGrid(t, 4)
	order := g.HilbertOrder()
	seen := make([]bool, g.NumClusters())
	for _, c := range order {
		if seen[c] {
			t.Fatalf("cluster %d repeated", c)
		}
		seen[c] = true
	}
	// Hilbert order steps between face-adjacent clusters.
	for pos := 1; pos < len(order); pos++ {
		i0, j0, k0 := g.Coords(order[pos-1])
		i1, j1, k1 := g.Coords(order[pos])
		d := abs(i1-i0) + abs(j1-j0) + abs(k1-k0)
		if d != 1 {
			t.Fatalf("Hilbert step %d→%d has distance %d", pos-1, pos, d)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestScatterAssignBalanced(t *testing.T) {
	g := unitGrid(t, 8)
	owner, err := g.ScatterAssign(16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	for _, o := range owner {
		counts[o]++
	}
	for p, c := range counts {
		if c != g.NumClusters()/16 {
			t.Fatalf("proc %d owns %d clusters", p, c)
		}
	}
}

func TestScatterAssignErrors(t *testing.T) {
	g, err := NewGrid(vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ScatterAssign(4); err == nil {
		t.Fatal("non-power-of-two grid accepted by scatter map")
	}
}

func TestRunsByLoadEqualLoads(t *testing.T) {
	order := make([]int, 16)
	loads := make([]float64, 16)
	for i := range order {
		order[i] = i
		loads[i] = 1
	}
	starts := RunsByLoad(order, loads, 4)
	want := []int{0, 4, 8, 12, 16}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v", starts)
		}
	}
}

func TestRunsByLoadSkewedLoads(t *testing.T) {
	// One huge cluster: it should occupy one processor; the rest spread.
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	loads := []float64{100, 1, 1, 1, 1, 1, 1, 1}
	starts := RunsByLoad(order, loads, 4)
	// First run is just cluster 0 (its load already exceeds 3·W/4).
	if starts[1] != 1 {
		t.Fatalf("starts = %v", starts)
	}
	owner := OwnerFromRuns(order, starts, 8)
	if owner[0] != 0 {
		t.Fatalf("owner = %v", owner)
	}
	// All positions covered, owners nondecreasing along the order.
	prev := 0
	for _, c := range order {
		if owner[c] < prev {
			t.Fatalf("owners not contiguous: %v", owner)
		}
		prev = owner[c]
	}
}

func TestRunsByLoadZeroTotal(t *testing.T) {
	order := []int{0, 1, 2, 3}
	loads := []float64{0, 0, 0, 0}
	starts := RunsByLoad(order, loads, 2)
	if starts[0] != 0 || starts[2] != 4 || starts[1] != 2 {
		t.Fatalf("starts = %v", starts)
	}
}

func TestRunsByLoadImbalanceBound(t *testing.T) {
	// With many clusters of bounded load, the resulting imbalance must be
	// small: max load ≤ mean + max single cluster load.
	g := unitGrid(t, 8)
	s := dist.MustNamed("s_10g_a", 20000, 3)
	buckets := g.Bucket(s.Particles)
	loads := make([]float64, g.NumClusters())
	var maxCluster float64
	for c, b := range buckets {
		loads[c] = float64(len(b))
		if loads[c] > maxCluster {
			maxCluster = loads[c]
		}
	}
	order := g.MortonOrder()
	const p = 16
	starts := RunsByLoad(order, loads, p)
	owner := OwnerFromRuns(order, starts, g.NumClusters())
	per := make([]float64, p)
	for c, o := range owner {
		per[o] += loads[c]
	}
	mean := 20000.0 / p
	for proc, l := range per {
		if l > mean+maxCluster+1 {
			t.Fatalf("proc %d load %v exceeds mean %v + max cluster %v", proc, l, mean, maxCluster)
		}
	}
}

func TestImbalanceMeasure(t *testing.T) {
	owner := []int{0, 0, 1, 1}
	loads := []float64{1, 1, 1, 1}
	if got := Imbalance(owner, loads, 2); got != 1 {
		t.Fatalf("balanced imbalance = %v", got)
	}
	loads = []float64{3, 1, 0, 0}
	if got := Imbalance(owner, loads, 2); got != 2 {
		t.Fatalf("imbalance = %v, want 2", got)
	}
	if got := Imbalance(owner, []float64{0, 0, 0, 0}, 2); got != 1 {
		t.Fatalf("zero-load imbalance = %v", got)
	}
}

func TestEqualCountZones(t *testing.T) {
	rep := func(k uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = k
		}
		return out
	}
	seq := make([]uint64, 100)
	for i := range seq {
		seq[i] = uint64(10 * (i + 1))
	}
	cases := []struct {
		name string
		ks   []uint64
		p    int
	}{
		{"distinct keys", seq, 8},
		{"runs of equal keys across cuts", append(append(rep(1, 10), rep(5, 60)...), seq...), 4},
		{"p > n", []uint64{3, 7, 9}, 8},
		{"all particles on one key", rep(42, 50), 4},
		{"no particles", nil, 3},
		{"p = 1", seq, 1},
	}
	for _, c := range cases {
		starts, bounds := EqualCountZones(c.ks, c.p)
		n := len(c.ks)
		if len(starts) != c.p+1 || len(bounds) != c.p || starts[0] != 0 || starts[c.p] != n || bounds[0] != 0 {
			t.Fatalf("%s: starts %v bounds %v", c.name, starts, bounds)
		}
		for z := 0; z < c.p; z++ {
			lo, hi := starts[z], starts[z+1]
			if hi < lo {
				t.Fatalf("%s: starts decrease at %d: %v", c.name, z, starts)
			}
			if z > 0 && bounds[z] < bounds[z-1] {
				t.Fatalf("%s: bounds decrease at %d: %x", c.name, z, bounds)
			}
			// Equal keys never straddle a cut.
			if lo > 0 && lo < n && c.ks[lo] == c.ks[lo-1] {
				t.Fatalf("%s: key %x straddles the cut at %d", c.name, c.ks[lo], lo)
			}
			// Every particle's key lies in its zone's key range.
			upper := ^uint64(0)
			if z+1 < c.p {
				upper = bounds[z+1]
			}
			for i := lo; i < hi; i++ {
				if c.ks[i] < bounds[z] || c.ks[i] >= upper {
					t.Fatalf("%s: key %x of zone %d outside [%x,%x)", c.name, c.ks[i], z, bounds[z], upper)
				}
			}
		}
	}
	// Distinct keys split evenly.
	starts, _ := EqualCountZones(seq, 8)
	for z := 0; z < 8; z++ {
		if got := starts[z+1] - starts[z]; got < 12 || got > 13 {
			t.Fatalf("zone %d has %d of 100 particles", z, got)
		}
	}
	// One key: one zone holds everything, the rest are empty.
	starts, bounds := EqualCountZones(rep(42, 50), 4)
	if starts[1] != 50 || bounds[1] != ^uint64(0) {
		t.Fatalf("one key: starts %v bounds %x", starts, bounds)
	}
}
