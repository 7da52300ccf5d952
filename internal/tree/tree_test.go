package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/phys"
	"repro/internal/vec"
)

func uniformSet(n int, seed int64) *dist.Set {
	return dist.Uniform(n, vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), seed)
}

func TestBuildInvariants(t *testing.T) {
	for _, name := range []string{"uniform", "plummer", "s_1g_a", "s_10g_b"} {
		s := dist.MustNamed(name, 3000, 1)
		tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Count(0) != 3000 {
			t.Fatalf("%s: root count %d", name, tr.Count(0))
		}
		if math.Abs(tr.Mass[0]-1) > 1e-9 {
			t.Fatalf("%s: root mass %v", name, tr.Mass[0])
		}
		com := s.CenterOfMass()
		if tr.COM(0).Dist(com) > 1e-9 {
			t.Fatalf("%s: COM %v vs %v", name, tr.COM(0), com)
		}
	}
}

// TestBoxesMatchBox: the one-pass box column equals Box node by node,
// push-down fragments and collapsed trees included.
func TestBoxesMatchBox(t *testing.T) {
	s := dist.MustNamed("plummer", 3000, 4)
	keyed := BuildKeyed(s.Particles, s.Domain, 8)
	keyed.MaximalCells(0, keyed.ks[1000], keyed.ks[2000], func(int32) {})
	if keyed.NumNodes() == int(keyed.Skip[0]) {
		t.Fatal("the zone cut pushed no leaf down")
	}
	collapsed := Build(s.Particles, Options{LeafCap: 8, CollapseBoxes: true})
	for _, tr := range []*Tree{keyed, collapsed} {
		boxes := tr.Boxes(nil)
		if len(boxes) != tr.NumNodes() {
			t.Fatalf("%d boxes for %d nodes", len(boxes), tr.NumNodes())
		}
		for i := range boxes {
			if boxes[i] != tr.Box(int32(i)) {
				t.Fatalf("node %d: box %v, Box %v", i, boxes[i], tr.Box(int32(i)))
			}
		}
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	s := uniformSet(2000, 2)
	for _, cap := range []int{1, 4, 16, 100} {
		tr := Build(s.Particles, Options{LeafCap: cap})
		tr.WalkLeaves(func(n int32) bool {
			if lvl := int(tr.Cell(n).Level); tr.Count(n) > cap && lvl < MaxDepth {
				t.Fatalf("leafCap %d: leaf with %d particles at level %d", cap, tr.Count(n), lvl)
			}
			return true
		})
	}
}

func TestBuildHandlesCoincidentParticles(t *testing.T) {
	// Particles at the same position must not recurse forever: the depth
	// cap turns the degenerate cell into an oversized leaf.
	ps := make([]dist.Particle, 20)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}}
	}
	tr := Build(ps, Options{LeafCap: 2, Domain: vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Count(0) != 20 {
		t.Fatalf("count = %d", tr.Count(0))
	}
	if tr.Depth() > MaxDepth {
		t.Fatalf("depth = %d", tr.Depth())
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	tr := Build(nil, Options{Domain: vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})})
	if tr.Count(0) != 0 {
		t.Fatalf("empty tree count = %d", tr.Count(0))
	}
	if a := tr.AccelAt(vec.V3{X: 0.5}, -1, 0.7, 0, nil); a != (vec.V3{}) {
		t.Fatalf("empty tree accel = %v", a)
	}
	one := []dist.Particle{{ID: 0, Mass: 2, Pos: vec.V3{X: 0.25, Y: 0.25, Z: 0.25}}}
	tr = Build(one, Options{Domain: vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})})
	if tr.Mass[0] != 2 {
		t.Fatalf("singleton mass = %v", tr.Mass[0])
	}
	// Self-interaction excluded.
	if a := tr.AccelAt(one[0].Pos, 0, 0.7, 0, nil); a != (vec.V3{}) {
		t.Fatalf("self accel = %v", a)
	}
}

func TestWalkLeavesIsMortonOrder(t *testing.T) {
	s := uniformSet(1000, 3)
	tr := Build(s.Particles, Options{LeafCap: 4, Domain: s.Domain})
	var prev keys.CellKey
	first := true
	tr.WalkLeaves(func(n int32) bool {
		if !first && !prev.Less(tr.Cell(n)) {
			t.Fatalf("leaf order violated: %v then %v", prev, tr.Cell(n))
		}
		prev = tr.Cell(n)
		first = false
		return true
	})
}

func TestWalkLeavesEarlyStop(t *testing.T) {
	s := uniformSet(500, 4)
	tr := Build(s.Particles, Options{LeafCap: 4})
	count := 0
	tr.WalkLeaves(func(int32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d leaves, want 3", count)
	}
}

func TestAlphaZeroIsExact(t *testing.T) {
	// With α = 0 the MAC never accepts, so BH degenerates to the direct
	// sum (every interaction is particle–particle).
	s := uniformSet(300, 5)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	var stats Stats
	got := make([]vec.V3, s.N())
	for i, p := range s.Particles {
		got[i] = tr.AccelAt(p.Pos, p.ID, 0, 0.01, &stats)
	}
	want := direct.Accels(s.Particles, 0.01)
	if e := phys.FractionalErrorV3(want, got); e > 1e-12 {
		t.Fatalf("α=0 error = %v", e)
	}
	if stats.PC != 0 {
		t.Fatalf("α=0 produced %d particle–cluster interactions", stats.PC)
	}
}

func TestAccuracyImprovesAsAlphaShrinks(t *testing.T) {
	s := dist.MustNamed("plummer", 2000, 6)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	want := direct.AccelsParallel(s.Particles, 0.01)
	var prevErr = math.Inf(1)
	var prevWork int64
	for _, alpha := range []float64{1.2, 0.8, 0.4} {
		var stats Stats
		got := make([]vec.V3, s.N())
		for i, p := range s.Particles {
			got[i] = tr.AccelAt(p.Pos, p.ID, alpha, 0.01, &stats)
		}
		err := phys.FractionalErrorV3(want, got)
		if err > prevErr*1.2 {
			t.Fatalf("α=%v error %v worse than %v", alpha, err, prevErr)
		}
		work := stats.Interactions()
		if work < prevWork { // smaller α must do at least as much work
			t.Fatalf("α=%v did %d interactions, previous %d — work should grow as α shrinks", alpha, work, prevWork)
		}
		prevErr, prevWork = err, work
	}
	if prevErr > 0.05 {
		t.Fatalf("α=0.4 force error = %v", prevErr)
	}
}

func TestTreeForceMuchCheaperThanDirect(t *testing.T) {
	s := dist.MustNamed("plummer", 5000, 7)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	var stats Stats
	for _, p := range s.Particles {
		tr.AccelAt(p.Pos, p.ID, 0.8, 0.01, &stats)
	}
	directWork := int64(s.N()) * int64(s.N()-1)
	if stats.Interactions()*5 > directWork {
		t.Fatalf("treecode did %d interactions vs direct %d — no speedup", stats.Interactions(), directWork)
	}
}

func TestPotentialMatchesDirectAtHighDegree(t *testing.T) {
	s := dist.MustNamed("plummer", 1000, 8)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	tr.BuildExpansions(6)
	got, _ := tr.PotentialAll(s.Particles, 0.6)
	want := direct.PotentialsParallel(s.Particles, 0)
	if e := phys.FractionalError(want, got); e > 5e-4 {
		t.Fatalf("degree-6 potential error = %v", e)
	}
}

func TestPotentialErrorDropsWithDegree(t *testing.T) {
	// The paper's Table 6 trend: error decreases as the degree grows at
	// fixed α.
	s := dist.MustNamed("g", 1500, 9)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	want := direct.PotentialsParallel(s.Particles, 0)
	var prev = math.Inf(1)
	for _, deg := range []int{1, 3, 5} {
		tr.BuildExpansions(deg)
		got, _ := tr.PotentialAll(s.Particles, 0.67)
		err := phys.FractionalError(want, got)
		if err > prev {
			t.Fatalf("degree %d error %v did not improve on %v", deg, err, prev)
		}
		prev = err
	}
}

func TestPotentialErrorGrowsWithAlpha(t *testing.T) {
	// The paper's Table 7 trend: error increases with α at fixed degree.
	s := dist.MustNamed("g", 1500, 10)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	tr.BuildExpansions(4)
	want := direct.PotentialsParallel(s.Particles, 0)
	var prev float64
	for _, alpha := range []float64{0.67, 0.8, 1.0} {
		got, _ := tr.PotentialAll(s.Particles, alpha)
		err := phys.FractionalError(want, got)
		if err < prev {
			t.Fatalf("α=%v error %v decreased from %v", alpha, err, prev)
		}
		prev = err
	}
}

func TestPotentialRequiresExpansions(t *testing.T) {
	s := uniformSet(10, 11)
	tr := Build(s.Particles, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("PotentialAt without expansions did not panic")
		}
	}()
	tr.PotentialAt(vec.V3{}, -1, 0.7, nil)
}

func TestLoadAccounting(t *testing.T) {
	s := uniformSet(500, 12)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	var stats Stats
	for _, p := range s.Particles {
		tr.AccelAt(p.Pos, p.ID, 0.7, 0.01, &stats)
	}
	w := tr.SumLoads()
	// Root load after SumLoads equals total interactions recorded. Leaf
	// loads count every particle in the leaf (including a self-skip), so
	// W ≥ interactions.
	if w < stats.Interactions() {
		t.Fatalf("summed load %d < interactions %d", w, stats.Interactions())
	}
	tr.ResetLoads()
	if tr.SumLoads() != 0 {
		t.Fatal("ResetLoads left residue")
	}
}

func TestStatsFlops(t *testing.T) {
	s := Stats{MACTests: 10, PC: 5, PP: 3}
	want := 10*phys.MACFlops + 5*phys.InteractionFlops(4) + 3*phys.PPFlops
	if got := s.Flops(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Flops = %v, want %v", got, want)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.MACTests != 20 || sum.PC != 10 || sum.PP != 6 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestTreeSizeReasonable(t *testing.T) {
	s := uniformSet(4096, 14)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	n := tr.NumNodes()
	if n < 4096/8 || n > 4096*4 {
		t.Fatalf("NumNodes = %d for 4096 particles", n)
	}
	if d := tr.Depth(); d < 3 || d > 12 {
		t.Fatalf("Depth = %d", d)
	}
}

func TestAccelAllMatchesPerParticle(t *testing.T) {
	s := uniformSet(200, 15)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	all, _ := tr.AccelAll(s.Particles, 0.7, 0.01)
	for i, p := range s.Particles {
		one := tr.AccelAt(p.Pos, p.ID, 0.7, 0.01, nil)
		if all[i] != one {
			t.Fatalf("particle %d: %v vs %v", i, all[i], one)
		}
	}
}

func TestMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 50 + int(uint(seed)%200)
		s := uniformSet(n, seed)
		tr := Build(s.Particles, Options{LeafCap: 1 + int(uint(seed)%8), Domain: s.Domain})
		return tr.Validate() == nil && tr.Count(0) == n &&
			math.Abs(tr.Mass[0]-s.TotalMass()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLeavesPartitionParticles(t *testing.T) {
	s := uniformSet(1000, 16)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	var ids []int
	tr.WalkLeaves(func(n int32) bool {
		for _, q := range tr.Particles(n) {
			ids = append(ids, q.ID)
		}
		return true
	})
	if len(ids) != 1000 {
		t.Fatalf("leaves hold %d particles", len(ids))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("missing or duplicate particle id near %d", i)
		}
	}
}

func TestAcceptsCriterion(t *testing.T) {
	// One unit-cube cell with its mass at the centre.
	com := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
	tr := Build([]dist.Particle{{Mass: 1, Pos: com}}, Options{Domain: vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})})
	// size/dist = 1/10 < 0.5 ⇒ accept.
	if !tr.Accepts(0, vec.V3{X: 10.5, Y: 0.5, Z: 0.5}, 0.5) {
		t.Fatal("distant node not accepted")
	}
	// size/dist = 1/1 ⇒ reject at α = 0.5.
	if tr.Accepts(0, vec.V3{X: 1.5, Y: 0.5, Z: 0.5}, 0.5) {
		t.Fatal("near node accepted")
	}
	// At the COM itself never accept.
	if tr.Accepts(0, com, 10) {
		t.Fatal("accepted at zero distance")
	}
}

func TestRandomizedForceAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		n := 100 + rng.Intn(400)
		s := dist.MustNamed([]string{"uniform", "plummer", "s_10g_a"}[trial], n, int64(trial))
		tr := Build(s.Particles, Options{LeafCap: 4, Domain: s.Domain})
		got, _ := tr.AccelAll(s.Particles, 0.5, 0.05)
		want := direct.Accels(s.Particles, 0.05)
		if e := phys.FractionalErrorV3(want, got); e > 0.02 {
			t.Fatalf("trial %d: force error %v", trial, e)
		}
	}
}
