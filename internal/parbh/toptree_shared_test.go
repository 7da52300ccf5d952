package parbh

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/transport"
)

// meshPhases runs phases on one engine per process of a three-process
// in-memory mesh, ranks dealt to processes by owner, and hands each
// process's engine and states to check on that process's goroutine. Every
// process's machine is set up before any of them sends: a frame that
// reaches a process with no handler installed fails the run.
func meshPhases(t *testing.T, set *dist.Set, cfg Config, owner []int32, check func(*Engine, *shipWorld)) {
	t.Helper()
	var engines []*Engine
	for _, node := range transport.NewMesh(3, nil) {
		t.Cleanup(func() { node.Close() })
		e, err := New(msg.NewNetworkMachine(node, owner, 0, msg.CM5()), set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := runPhases(e, false)
			if err != nil {
				t.Error(err)
				return
			}
			check(e, w)
		}()
	}
	wg.Wait()
}

// TestTopSharedAcrossLocalRanks checks that the host merges the replicated
// tree once per process: every rank of an in-process machine reads one
// tree, and on three processes each process's ranks read their process's.
// Every process flattens the same table from branch ordinal to cell and
// owners, the in-process machine's: a function-shipping request names its
// branch by ordinal.
func TestTopSharedAcrossLocalRanks(t *testing.T) {
	set := dist.MustNamed("g", 1200, 24)
	cfg := Config{Scheme: DPDA, Mode: PotentialMode, Degree: 2, Alpha: 0.67}
	const p = 8

	w := phases(t, newShipEngine(t, set, p, cfg), false)
	for _, st := range w.states {
		if st.top == nil || st.top != w.states[0].top {
			t.Fatalf("rank %d reads tree %p, rank 0 reads %p", st.me, st.top, w.states[0].top)
		}
	}

	want := w.states[0].flat
	if len(want.keys) == 0 || len(want.keys) != want.main.NumBranches() {
		t.Fatalf("%d branch ordinals for %d branch cells", len(want.keys), want.main.NumBranches())
	}

	owner := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	tops := make([]*pnode, p)
	flats := make([]*topFlat, p)
	meshPhases(t, set, cfg, owner, func(e *Engine, w *shipWorld) {
		for _, rk := range e.machine.LocalRanks() {
			tops[rk], flats[rk] = w.states[rk].top, w.states[rk].flat
		}
	})
	for rk, tf := range flats {
		if tf == nil || !slices.Equal(tf.keys, want.keys) || !slices.Equal(tf.ownerLo, want.ownerLo) || !slices.Equal(tf.owners, want.owners) {
			t.Fatalf("rank %d's process flattened another table from ordinal to cell and owners than the in-process machine", rk)
		}
	}
	for rk, top := range tops {
		if top == nil {
			t.Fatalf("rank %d has no tree", rk)
		}
		leader := tops[3*owner[rk]]
		if top != leader {
			t.Errorf("rank %d reads tree %p, its process's leader reads %p", rk, top, leader)
		}
		if rk > 0 && owner[rk] != owner[rk-1] && top == tops[rk-1] {
			t.Errorf("processes %d and %d share tree %p", owner[rk-1], owner[rk], top)
		}
		if top.count != set.N() || math.Float64bits(top.mass) != math.Float64bits(tops[0].mass) {
			t.Errorf("rank %d: tree of %d particles, mass %v; rank 0's has %d, %v", rk, top.count, top.mass, tops[0].count, tops[0].mass)
		}
	}
}

// TestFlatHoldsNoCopies checks that a rank's flat essential tree is a
// table of references, under LET and under function shipping: every rank's
// Flat reads its process's one main region — one for an in-process
// machine, one per process on three — whose columns hold no particle;
// leaves are read where they live, in the sections as they arrived and in
// the rank's own tree.
func TestFlatHoldsNoCopies(t *testing.T) {
	set := dist.MustNamed("g", 1200, 24)
	const p = 8
	owner := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	for _, ship := range []Shipping{LETShipping, FunctionShipping} {
		cfg := Config{Scheme: DPDA, Mode: PotentialMode, Degree: 2, Alpha: 0.67, Shipping: ship}
		// mains returns the main region each local rank's Flat reads.
		mains := func(e *Engine, w *shipWorld) map[int]*let.Main {
			got := map[int]*let.Main{}
			sections := 0
			for _, rk := range e.machine.LocalRanks() {
				st := w.states[rk]
				fl := st.letFlat
				if ship == FunctionShipping {
					r := &shipRun{e: e, st: st, sh: &e.ship[rk]}
					r.flatten()
					fl = r.fl
				}
				if fl.Main() != st.flat.main {
					t.Errorf("%v: rank %d's Flat reads main region %p, its process's is %p", ship, rk, fl.Main(), st.flat.main)
				}
				if n := fl.Main().NumParticles(); n != 0 {
					t.Errorf("%v: rank %d's main region holds %d particles", ship, rk, n)
				}
				sections += fl.NumSections()
				got[rk] = fl.Main()
			}
			if ship == LETShipping && sections == 0 {
				t.Errorf("%v: no rank of process %v grafted a section", ship, e.machine.LocalRanks())
			}
			return got
		}

		e := newShipEngine(t, set, p, cfg)
		for rk, m := range mains(e, phases(t, e, false)) {
			if m == nil || m != e.letFlats[0].Main() {
				t.Errorf("%v: rank %d reads main region %p, rank 0 reads %p", ship, rk, m, e.letFlats[0].Main())
			}
		}

		var mu sync.Mutex
		all := map[int]*let.Main{}
		meshPhases(t, set, cfg, owner, func(e *Engine, w *shipWorld) {
			got := mains(e, w)
			mu.Lock()
			defer mu.Unlock()
			for rk, m := range got {
				all[rk] = m
			}
		})
		for rk := 0; rk < p; rk++ {
			m, leader := all[rk], all[3*int(owner[rk])]
			if m == nil || m != leader {
				t.Errorf("%v: rank %d reads main region %p, its process's leader reads %p", ship, rk, m, leader)
			}
			if rk > 0 && owner[rk] != owner[rk-1] && m == all[rk-1] {
				t.Errorf("%v: processes %d and %d share main region %p", ship, owner[rk-1], owner[rk], m)
			}
		}
	}
}

// TestDataShippingGraftsStayPrivate runs the data-shipping force phase over
// a hand-built world whose ranks read one replicated tree, and again with a
// tree apiece. Octant 0 is a leaf-cell branch of rank 0, which every other
// rank fetches without a MAC test, so three ranks hold its particles under
// the same remote branch, each in a section of its own; each must pay for
// its own fetch and leave the shared tree as it found it.
func TestDataShippingGraftsStayPrivate(t *testing.T) {
	set := dist.MustNamed("uniform", 900, 12)
	for _, ship := range []Shipping{DataShipping, DataShippingNaive} {
		for _, m := range shipModes {
			cfg := Config{Scheme: SPSA, Shipping: ship, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, LeafCap: 4}
			run := func(private bool) (*shipWorld, []msg.Stats) {
				e, states := handWorld(t, set, 4, cfg)
				if private {
					for _, st := range states[1:] {
						_, own := handWorld(t, set, 4, cfg)
						st.top = own[0].top
					}
				}
				w := newShipWorld(e.cfg, states, set.N())
				res := &Result{Accels: w.accels, Potentials: w.pots}
				stats, err := e.machine.RunErr(func(pr *msg.Proc) { e.dataShipPhase(pr, states[pr.ID()], res) })
				if err != nil {
					t.Fatal(err)
				}
				return w, stats
			}
			want, wantStats := run(true)
			got, gotStats := run(false)
			compareWorlds(t, want, got)
			for rk := range wantStats {
				if gotStats[rk] != wantStats[rk] {
					t.Errorf("%v/%s: rank %d spent %+v on a shared tree, %+v on its own", ship, m.name, rk, gotStats[rk], wantStats[rk])
				}
			}
			leaf := got.states[0].top.children[0]
			if leaf == nil || !leaf.isBranch || !leaf.leafCell || leaf.children != ([8]*pnode{}) || len(leaf.owners) != 1 || leaf.owners[0] != 0 {
				t.Fatalf("%v/%s: octant 0 of the shared tree is not rank 0's untouched leaf-cell branch: %+v", ship, m.name, leaf)
			}
		}
	}
}
