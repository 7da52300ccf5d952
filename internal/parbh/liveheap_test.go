package parbh

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/tree"
)

// TestEngineLiveHeap bounds what an engine keeps between steps, and logs
// it per particle.
//
// p64-potential is where the ranks are many and the particles few: DPDA on
// 64 ranks, 5000 particles, degree-4 potentials, function shipping. At the
// commit before the replicated top tree became one per process this read
// ≈ 126 MB live: every rank's copy of the branch cells and their
// expansions, and a request buffer per destination per rank, each at its
// own high-water mark. With one top tree per process it read ≈ 58 MB, of
// which ≈ 9 MB were every rank's own flattened copy of that tree. With one
// flattened main region per process, which every rank's flat tree only
// references, it read 46.7–48.0 MB. With requests that carry a particle
// once per owner and then its branch keys, and replies that carry only
// values, it reads 32.0–32.1 MB (GOMAXPROCS 1 to 4), 6.4 KB a particle;
// the bound is that plus 10 %.
//
// p16-func is the shape of the ledger's dpda_func_p16: DPDA with function
// shipping on 16 ranks, 20 000 particles, α = 0.67, force mode. It read
// 26.1 MB while a request held a 40 B entry per (particle, branch) pair
// and the requester a ship record and a slot value beside it; it read
// 20.6–20.7 MB while each rank kept its extra-load account in a map keyed
// by particle ID; with a slice beside the particles it reads 20.1–20.2 MB
// (GOMAXPROCS 1 to 4). The bound is the earlier reading plus 10 %.
//
// p8-let is the shape of the ledger's service_frames_tail: DPDA with LET
// on 8 ranks, 40 000 particles, α = 1, force mode, where each rank's
// local tree and particle arrays are most of the memory. It read ≈ 32 MB
// while every rank's flat tree held a copy of its own subtrees and of
// every section it received; read where they live, it reads 23.3–25.1 MB
// (GOMAXPROCS 1 to 4); the bound is 23.3–24.9 MB plus 10 %.
func TestEngineLiveHeap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     *dist.Set
		p       int
		cfg     Config
		boundMB float64
	}{
		{"p64-potential", dist.MustNamed("g", 5000, 7), 64,
			Config{Scheme: DPDA, Mode: PotentialMode, Degree: 4, Alpha: 0.67}, 35.3},
		{"p16-func", dist.MustNamed("g", 20000, 1994), 16,
			Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01}, 22.8},
		{"p8-let", dist.MustNamed("g", 40000, 1994), 8,
			Config{Scheme: DPDA, Mode: ForceMode, Alpha: 1, Eps: 0.01, Shipping: LETShipping}, 27.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(msg.NewMachine(tc.p, msg.CM5()), tc.set, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				e.Step()
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(e)
			mb := float64(ms.HeapAlloc) / 1e6
			t.Logf("%.1f MB live, %.0f B per particle", mb, float64(ms.HeapAlloc)/float64(tc.set.N()))
			if mb > tc.boundMB {
				t.Errorf("engine holds %.1f MB live after three steps, more than %.1f MB", mb, tc.boundMB)
			}
		})
	}
}

// TestStepLeavesNoDeadTree checks that nothing an engine keeps between
// steps reaches the previous step's trees or sections: DPDA on 16 ranks
// under LET and under function shipping. A rank's builder keeps its tree's
// columns from one step to the next; here every builder is Reset after
// step k, so step k+1 gives up every column, and a finalizer on each must
// have run after it and a GC. So must one on every column of every section
// a rank grafted in step k. Scratch that keeps a tree or a section across
// steps (a flat tree's reference to the rank's tree or to what it grafted,
// a section's node list, a per-rank state) pins a whole generation of
// columns and shows up here.
func TestStepLeavesNoDeadTree(t *testing.T) {
	for _, ship := range []Shipping{LETShipping, FunctionShipping} {
		t.Run(ship.String(), func(t *testing.T) {
			e, err := New(msg.NewMachine(16, msg.CM5()), dist.MustNamed("g", 20000, 1994),
				Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, Shipping: ship})
			if err != nil {
				t.Fatal(err)
			}
			var freed, want, sections atomic.Int32
			e.Step()
			e.onGraft = func(sec *let.Section) {
				sections.Add(1)
				watchCols(&freed, &want, &sec.Cols)
				watch(&freed, &want, sec.ExpFloats)
			}
			e.Step()
			e.onGraft = nil
			if ship == LETShipping && sections.Load() == 0 {
				t.Fatal("no rank grafted a section")
			}
			for _, b := range e.builders {
				tr := b.Tree()
				watchCols(&freed, &want, &tr.Cols)
				watch(&freed, &want, tr.Key)
				watch(&freed, &want, tr.Load)
				watch(&freed, &want, b.Particles())
				b.Reset()
			}
			e.Step()
			// Finalizers run on their own goroutine after the GC that finds
			// their objects unreachable.
			for i := 0; i < 50 && freed.Load() < want.Load(); i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			runtime.KeepAlive(e)
			if got := freed.Load(); got != want.Load() {
				t.Errorf("%d of %d columns of the ranks' previous trees and of the %d sections they grafted were collected after the next step",
					got, want.Load(), sections.Load())
			}
		})
	}
}

// watchCols watches every column of c.
func watchCols(freed, want *atomic.Int32, c *tree.Cols) {
	watch(freed, want, c.Kind)
	watch(freed, want, c.ComX)
	watch(freed, want, c.ComY)
	watch(freed, want, c.ComZ)
	watch(freed, want, c.Mass)
	watch(freed, want, c.Side)
	watch(freed, want, c.Exp)
	watch(freed, want, c.Skip)
	watch(freed, want, c.Lo)
	watch(freed, want, c.Hi)
	watch(freed, want, c.ID)
	watch(freed, want, c.PX)
	watch(freed, want, c.PY)
	watch(freed, want, c.PZ)
	watch(freed, want, c.PM)
}

// watch counts col's backing array in want and sets a finalizer on it
// that counts it in freed.
func watch[T any](freed, want *atomic.Int32, col []T) {
	if cap(col) == 0 {
		return
	}
	want.Add(1)
	runtime.SetFinalizer(&col[:1][0], func(*T) { freed.Add(1) })
}
