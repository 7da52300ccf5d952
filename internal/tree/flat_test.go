package tree

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/vec"
)

// The packet sweep replays the recursive traversal's exact reduction tree,
// so its accelerations, potentials, Stats, and per-node Load counters must
// be bit-identical to the recursive AccelAll/PotentialAll — not
// approximately equal.

func flatVsPointer(t *testing.T, ps []dist.Particle, domain vec.Box, alpha, eps float64, leafCap int) {
	t.Helper()
	flatVsPointerQuery(t, ps, ps, domain, alpha, eps, leafCap)
}

// flatVsPointerQuery builds the tree over ps and sweeps query (which need
// not be the tree's own particles) through both traversals: in force mode,
// then in potential mode at two degrees.
func flatVsPointerQuery(t *testing.T, ps, query []dist.Particle, domain vec.Box, alpha, eps float64, leafCap int) {
	t.Helper()
	ptrTree := BuildKeyed(ps, domain, leafCap)
	flatTree := BuildKeyed(ps, domain, leafCap)
	wantAcc, wantStats := ptrTree.AccelAll(query, alpha, eps)
	gotAcc, gotStats := flatTree.AccelSweep(query, alpha, eps)
	if gotStats != wantStats {
		t.Fatalf("stats differ: flat %+v pointer %+v", gotStats, wantStats)
	}
	for i := range wantAcc {
		if math.Float64bits(gotAcc[i].X) != math.Float64bits(wantAcc[i].X) ||
			math.Float64bits(gotAcc[i].Y) != math.Float64bits(wantAcc[i].Y) ||
			math.Float64bits(gotAcc[i].Z) != math.Float64bits(wantAcc[i].Z) {
			t.Fatalf("accel %d differs: flat %v pointer %v", i, gotAcc[i], wantAcc[i])
		}
	}
	sameLoads(t, "force", flatTree, ptrTree)
	for _, degree := range []int{0, 3} {
		flatVsPointerPotential(t, flatTree, ptrTree, query, alpha, degree)
	}
}

// flatVsPointerPotential sweeps query through two equal trees in potential
// mode, one by the packet sweep and one by recursion.
func flatVsPointerPotential(t *testing.T, flatTree, ptrTree *Tree, query []dist.Particle, alpha float64, degree int) {
	t.Helper()
	for _, tr := range []*Tree{flatTree, ptrTree} {
		tr.ResetLoads()
		tr.BuildExpansions(degree)
	}
	wantPot, wantStats := ptrTree.PotentialAll(query, alpha)
	gotPot, gotStats := flatTree.PotentialSweep(query, alpha)
	if gotStats != wantStats {
		t.Fatalf("degree %d: stats differ: flat %+v pointer %+v", degree, gotStats, wantStats)
	}
	for i := range wantPot {
		if math.Float64bits(gotPot[i]) != math.Float64bits(wantPot[i]) {
			t.Fatalf("degree %d: potential %d differs: flat %v pointer %v", degree, i, gotPot[i], wantPot[i])
		}
	}
	sameLoads(t, "potential", flatTree, ptrTree)
}

func sameLoads(t *testing.T, mode string, flatTree, ptrTree *Tree) {
	t.Helper()
	gotLoads, wantLoads := collectLoads(flatTree), collectLoads(ptrTree)
	if len(gotLoads) != len(wantLoads) {
		t.Fatalf("%s: load vector length: %d vs %d", mode, len(gotLoads), len(wantLoads))
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("%s: load %d differs: flat %d pointer %d", mode, i, gotLoads[i], wantLoads[i])
		}
	}
}

func TestFlatAccelMatchesPointer(t *testing.T) {
	for _, name := range []string{"plummer", "g", "uniform"} {
		t.Run(name, func(t *testing.T) {
			s := dist.MustNamed(name, 3000, 61)
			for _, alpha := range []float64{0.3, 0.67, 1.2} {
				flatVsPointer(t, s.Particles, s.Domain, alpha, 0.01, 8)
			}
		})
	}
}

func TestFlatAccelSmallAndDegenerate(t *testing.T) {
	domain := vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}}
	t.Run("single", func(t *testing.T) {
		ps := []dist.Particle{{ID: 0, Mass: 2, Pos: vec.V3{X: 0.25}}}
		flatVsPointer(t, ps, domain, 0.67, 0.01, 8)
	})
	t.Run("root-leaf", func(t *testing.T) {
		// n ≤ leafCap: the whole tree is one leaf, the rootLeaf kernel path.
		ps := make([]dist.Particle, 6)
		for i := range ps {
			ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: float64(i) * 0.1, Y: -0.3}}
		}
		flatVsPointer(t, ps, domain, 0.67, 0.01, 8)
	})
	t.Run("coincident", func(t *testing.T) {
		ps := make([]dist.Particle, 20)
		for i := range ps {
			ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}}
		}
		flatVsPointer(t, ps, domain, 0.67, 0.01, 4)
	})
}

func TestFlatAccelRootPC(t *testing.T) {
	// A tight far cluster plus one distant probe: with a generous alpha
	// the probe accepts the root cell outright — the rootPC kernel path.
	domain := vec.Box{Min: vec.V3{X: -100, Y: -100, Z: -100}, Max: vec.V3{X: 100, Y: 100, Z: 100}}
	var ps []dist.Particle
	for i := 0; i < 30; i++ {
		ps = append(ps, dist.Particle{ID: i, Mass: 1, Pos: vec.V3{
			X: -90 + 0.01*float64(i%5), Y: -90 + 0.01*float64(i/5), Z: -90}})
	}
	ps = append(ps, dist.Particle{ID: 30, Mass: 1, Pos: vec.V3{X: 95, Y: 95, Z: 95}})
	flatVsPointer(t, ps, domain, 5.0, 0.01, 4)
}

func TestFlatPotentialMatchesPointer(t *testing.T) {
	s := dist.MustNamed("plummer", 2500, 23)
	for _, degree := range []int{0, 2, 4} {
		flatVsPointerPotential(t, BuildKeyed(s.Particles, s.Domain, 8), BuildKeyed(s.Particles, s.Domain, 8), s.Particles, 0.67, degree)
	}
}

// TestFlatPotentialWithoutExpansions: a potential sweep that accepts a node
// the tree gave no expansion says which step was skipped.
func TestFlatPotentialWithoutExpansions(t *testing.T) {
	s := dist.MustNamed("plummer", 200, 23)
	tr := BuildKeyed(s.Particles, s.Domain, 8)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "BuildExpansions") {
			t.Fatalf("panic %q does not name BuildExpansions", msg)
		}
	}()
	tr.PotentialSweep(s.Particles[:8], 0.67) // one packet: swept on this goroutine
}

func TestFlatParallelMatchesSerial(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	s := dist.MustNamed("plummer", 4000, 61)

	serialTree := BuildKeyed(s.Particles, s.Domain, 8)
	prev := compute.SetMaxWorkers(1)
	wantAcc, wantStats := serialTree.AccelSweep(s.Particles, 0.67, 0.01)
	compute.SetMaxWorkers(prev)
	wantLoads := collectLoads(serialTree)

	parTree := BuildKeyed(s.Particles, s.Domain, 8)
	if w := compute.Workers(len(s.Particles)); w < 2 {
		t.Fatalf("expected multiple workers, got %d", w)
	}
	gotAcc, gotStats := parTree.AccelSweep(s.Particles, 0.67, 0.01)
	gotLoads := collectLoads(parTree)

	if gotStats != wantStats {
		t.Fatalf("stats differ: parallel %+v serial %+v", gotStats, wantStats)
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("accel %d differs: parallel %v serial %v", i, gotAcc[i], wantAcc[i])
		}
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("load %d differs: parallel %d serial %d", i, gotLoads[i], wantLoads[i])
		}
	}
}

func TestFlattenReuse(t *testing.T) {
	// Flatten over a reused FlatTree (benchmark/serial.go's per-step
	// pattern) must give the same answers as the tree's own sweep.
	s := dist.MustNamed("g", 1500, 7)
	tr := BuildKeyed(s.Particles, s.Domain, 8)
	f := Flatten(tr, nil)
	f.AccelAll(s.Particles, 0.67, 0.01)

	small := s.Particles[:200]
	tr2 := BuildKeyed(small, s.Domain, 8)
	f = Flatten(tr2, f) // shrinking reuse
	gotAcc, gotStats := f.AccelAll(small, 0.67, 0.01)

	ref := BuildKeyed(small, s.Domain, 8)
	wantAcc, wantStats := ref.AccelSweep(small, 0.67, 0.01)
	if gotStats != wantStats {
		t.Fatalf("stats differ after reuse: %+v vs %+v", gotStats, wantStats)
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("accel %d differs after reuse", i)
		}
	}
}
