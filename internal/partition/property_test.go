package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRunsByLoadProperties(t *testing.T) {
	f := func(seed int64, pRaw uint8, rRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + int(pRaw%16)
		r := p + int(rRaw%256)
		order := rng.Perm(r)
		loads := make([]float64, r)
		for i := range loads {
			loads[i] = rng.Float64() * 10
		}
		starts := RunsByLoad(order, loads, p)
		// Shape invariants.
		if len(starts) != p+1 || starts[0] != 0 || starts[p] != r {
			return false
		}
		for i := 1; i <= p; i++ {
			if starts[i] < starts[i-1] {
				return false
			}
		}
		// Ownership covers every cluster exactly once.
		owner := OwnerFromRuns(order, starts, r)
		seen := make([]int, r)
		for proc := 0; proc < p; proc++ {
			for pos := starts[proc]; pos < starts[proc+1]; pos++ {
				seen[order[pos]]++
			}
		}
		for c := range seen {
			if seen[c] != 1 {
				return false
			}
		}
		// Owners are nondecreasing along the order (contiguous runs).
		prev := 0
		for _, c := range order {
			if owner[c] < prev {
				return false
			}
			prev = owner[c]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunsByLoadBoundOnImbalance(t *testing.T) {
	// Property: max run load ≤ W/p + max single cluster load (each
	// boundary can overshoot by at most one cluster).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const p = 8
		r := 64 + rng.Intn(512)
		order := make([]int, r)
		loads := make([]float64, r)
		var total, maxLoad float64
		for i := range order {
			order[i] = i
			loads[i] = rng.Float64() * 100
			total += loads[i]
			if loads[i] > maxLoad {
				maxLoad = loads[i]
			}
		}
		starts := RunsByLoad(order, loads, p)
		for proc := 0; proc < p; proc++ {
			var l float64
			for pos := starts[proc]; pos < starts[proc+1]; pos++ {
				l += loads[order[pos]]
			}
			if l > total/p+maxLoad+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGridBucketMortonOrderConsistent(t *testing.T) {
	// MortonOrder and HilbertOrder must be permutations for non-cubic and
	// non-power-of-two grids too.
	for _, dims := range [][3]int{{4, 4, 4}, {8, 2, 1}, {3, 5, 7}} {
		g, err := NewGrid(vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][]int{g.MortonOrder(), g.HilbertOrder()} {
			if len(order) != g.NumClusters() {
				t.Fatalf("order length %d for grid %v", len(order), dims)
			}
			seen := make([]bool, g.NumClusters())
			for _, c := range order {
				if c < 0 || c >= g.NumClusters() || seen[c] {
					t.Fatalf("bad order for grid %v", dims)
				}
				seen[c] = true
			}
		}
	}
}
