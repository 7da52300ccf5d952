package parbh

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/tree"
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
			t.Logf("%.1f MB live", mb)
			if mb > tc.boundMB {
				t.Errorf("engine holds %.1f MB live after three steps, more than %.1f MB", mb, tc.boundMB)
			}
		})
	}
}

// TestStepLeavesNoDeadTree checks that nothing an engine keeps between
// steps reaches the previous step's trees: DPDA on 16 ranks under LET and
// under function shipping. A finalizer goes on every rank's local tree
// after step k; after step k+1 and a GC all of them must have run. Scratch
// that keeps node pointers across steps (a section's node list, a flat
// tree's Load write-back references, a builder holding its old tree while
// it builds the new one) pins a whole generation of trees and shows up here.
//
// A tree is one node slice whose nodes point into it. The collector scans
// an object over 128 KiB in pieces and does not recognize a pointer from
// one piece into another as the object's own, so such a tree marks itself
// and its finalizer never runs. The particle count keeps every rank's
// tree under that size; the test says so if it does not.
func TestStepLeavesNoDeadTree(t *testing.T) {
	const oblet = 128 << 10
	for _, ship := range []Shipping{LETShipping, FunctionShipping} {
		t.Run(ship.String(), func(t *testing.T) {
			e, err := New(msg.NewMachine(16, msg.CM5()), dist.MustNamed("g", 8000, 1994),
				Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, Shipping: ship})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				e.Step()
			}
			var freed atomic.Int32
			for rank, b := range e.builders {
				root := b.Tree().Root
				if size := tree.CountNodes(root) * int(unsafe.Sizeof(*root)); size >= oblet {
					t.Fatalf("rank %d: %d-byte tree cannot be finalized", rank, size)
				}
				runtime.SetFinalizer(root, func(*tree.Node) { freed.Add(1) })
			}
			e.Step()
			want := int32(len(e.builders))
			// Finalizers run on their own goroutine after the GC that finds
			// their objects unreachable.
			for i := 0; i < 50 && freed.Load() < want; i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			runtime.KeepAlive(e)
			if got := freed.Load(); got != want {
				t.Errorf("%d of %d ranks' previous trees were collected after the next step", got, want)
			}
		})
	}
}
