package tree

import (
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
)

// Host parallelism must never change results: AccelAll/PotentialAll run
// multi-core but are required to be bit-identical — accelerations, Stats,
// and per-node Load counters — to the sequential loop (the "two clocks"
// invariant, DESIGN.md). These tests force a multi-worker run even on a
// single-core host by raising GOMAXPROCS.

// collectLoads returns every node's Load in depth-first order.
func collectLoads(t *Tree) []int64 { return append([]int64(nil), t.Load...) }

func TestAccelAllParallelMatchesSerial(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	s := dist.MustNamed("plummer", 4000, 61)
	build := func() *Tree {
		return Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	}

	serialTree := build()
	prev := compute.SetMaxWorkers(1)
	wantAcc, wantStats := serialTree.AccelAll(s.Particles, 0.67, 0.01)
	compute.SetMaxWorkers(prev)
	wantLoads := collectLoads(serialTree)

	parTree := build()
	if w := compute.Workers(len(s.Particles)); w < 2 {
		t.Fatalf("expected multiple workers, got %d", w)
	}
	gotAcc, gotStats := parTree.AccelAll(s.Particles, 0.67, 0.01)
	gotLoads := collectLoads(parTree)

	if gotStats != wantStats {
		t.Errorf("stats differ: parallel %+v serial %+v", gotStats, wantStats)
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("accel %d differs: parallel %v serial %v", i, gotAcc[i], wantAcc[i])
		}
	}
	if len(gotLoads) != len(wantLoads) {
		t.Fatalf("node counts differ: %d vs %d", len(gotLoads), len(wantLoads))
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("load %d differs: parallel %d serial %d", i, gotLoads[i], wantLoads[i])
		}
	}
}

func TestPotentialAllParallelMatchesSerial(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	s := dist.MustNamed("g", 3000, 62)
	build := func() *Tree {
		tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
		tr.BuildExpansions(4)
		return tr
	}

	serialTree := build()
	prev := compute.SetMaxWorkers(1)
	wantPhi, wantStats := serialTree.PotentialAll(s.Particles, 0.67)
	compute.SetMaxWorkers(prev)
	wantLoads := collectLoads(serialTree)

	parTree := build()
	gotPhi, gotStats := parTree.PotentialAll(s.Particles, 0.67)
	gotLoads := collectLoads(parTree)

	if gotStats != wantStats {
		t.Errorf("stats differ: parallel %+v serial %+v", gotStats, wantStats)
	}
	for i := range wantPhi {
		if gotPhi[i] != wantPhi[i] {
			t.Fatalf("potential %d differs: parallel %v serial %v", i, gotPhi[i], wantPhi[i])
		}
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			t.Fatalf("load %d differs: parallel %d serial %d", i, gotLoads[i], wantLoads[i])
		}
	}
}

// TestParallelBuildMatchesSerial checks that the goroutine-parallel
// octree construction produces exactly the structure the serial build
// does, above and below the parallel threshold.
func TestParallelBuildMatchesSerial(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	s := dist.MustNamed("plummer", 2*parallelBuildMin, 63)

	prev := compute.SetMaxWorkers(1)
	serial := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	compute.SetMaxWorkers(prev)
	par := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})

	if err := diffTrees(par, serial); err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildKeyedUnsortedInput checks the radix-sorted keyed build handles
// arbitrary input order: the tree over a shuffled particle set must be
// identical (Morton order is canonical) to the tree over sorted input.
func TestBuildKeyedUnsortedInput(t *testing.T) {
	s := dist.MustNamed("uniform", 3000, 64)
	a := BuildKeyed(s.Particles, s.Domain, 8)

	shuffled := append([]dist.Particle(nil), s.Particles...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	b := BuildKeyed(shuffled, s.Domain, 8)

	if a.NumNodes() != b.NumNodes() || a.Depth() != b.Depth() {
		t.Fatalf("shape differs: %d/%d nodes, %d/%d depth",
			a.NumNodes(), b.NumNodes(), a.Depth(), b.Depth())
	}
	ids := func(tr *Tree) []int {
		var out []int
		tr.WalkLeaves(func(l int32) bool {
			for _, q := range tr.Particles(l) {
				out = append(out, q.ID)
			}
			return true
		})
		return out
	}
	ia, ib := ids(a), ids(b)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("leaf order differs at %d: %d vs %d", i, ia[i], ib[i])
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}
