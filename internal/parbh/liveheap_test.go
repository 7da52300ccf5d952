package parbh

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/msg"
)

// TestEngineLiveHeap bounds what an engine keeps between steps.
//
// p64-potential is where the ranks are many and the particles few: DPDA
// on 64 ranks, 5000 particles, degree-4 potentials, function shipping. At
// the commit before the replicated top tree became one per process this
// read ≈ 126 MB live — 40 % of it under buildTop (every rank's
// shipScratch.branchAt kept its own copy of the branch cells and their
// expansions reachable), 41 % under shipRun.sweep (a request buffer per
// destination per rank, each at its own high-water mark) — for 0.3 MB of
// particles. The bound is half of that; what is left (≈ 58 MB) is mostly
// one round of request entries and one flat tree per rank.
//
// p8-let is the shape of the ledger's service_frames_tail: DPDA with LET
// on 8 ranks, 40 000 particles, α = 1, force mode, where each rank's
// local tree and particle arrays are most of the memory. It read ≈ 40.6 MB
// live while every rank kept, besides its builder's sorted snapshot, an
// array of arrivals, a sorted copy of them with their keys, and a fresh
// array from every rebalancing exchange, and while scratch node lists
// kept earlier steps' trees reachable. With one particle array besides
// the snapshot, filled in place by migration and rebalancing, and no dead
// tree reachable, it reads ≈ 32 MB.
func TestEngineLiveHeap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     *dist.Set
		p       int
		cfg     Config
		boundMB float64
	}{
		{"p64-potential", dist.MustNamed("g", 5000, 7), 64,
			Config{Scheme: DPDA, Mode: PotentialMode, Degree: 4, Alpha: 0.67}, 126.0 / 2},
		{"p8-let", dist.MustNamed("g", 40000, 1994), 8,
			Config{Scheme: DPDA, Mode: ForceMode, Alpha: 1, Eps: 0.01, Shipping: LETShipping}, 35},
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
// steps reaches the previous step's trees: DPDA on 16 ranks under LET and
// under function shipping. A rank's builder keeps its tree's columns from
// one step to the next; here every builder is Reset after step k, so step
// k+1 gives up every column, and a finalizer on each must have run after
// it and a GC. Scratch that keeps a tree across steps (a flat tree's Load
// write-back spans, a section's node list, a per-rank state) pins a whole
// generation of columns and shows up here.
func TestStepLeavesNoDeadTree(t *testing.T) {
	for _, ship := range []Shipping{LETShipping, FunctionShipping} {
		t.Run(ship.String(), func(t *testing.T) {
			e, err := New(msg.NewMachine(16, msg.CM5()), dist.MustNamed("g", 20000, 1994),
				Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, Shipping: ship})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				e.Step()
			}
			var freed atomic.Int32
			var want atomic.Int32
			for _, b := range e.builders {
				tr := b.Tree()
				watch(&freed, &want, tr.Kind)
				watch(&freed, &want, tr.ComX)
				watch(&freed, &want, tr.ComY)
				watch(&freed, &want, tr.ComZ)
				watch(&freed, &want, tr.Mass)
				watch(&freed, &want, tr.Side)
				watch(&freed, &want, tr.Exp)
				watch(&freed, &want, tr.Skip)
				watch(&freed, &want, tr.Lo)
				watch(&freed, &want, tr.Hi)
				watch(&freed, &want, tr.Key)
				watch(&freed, &want, tr.Load)
				watch(&freed, &want, tr.ID)
				watch(&freed, &want, tr.PX)
				watch(&freed, &want, tr.PY)
				watch(&freed, &want, tr.PZ)
				watch(&freed, &want, tr.PM)
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
				t.Errorf("%d of %d columns of the ranks' previous trees were collected after the next step", got, want.Load())
			}
		})
	}
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
