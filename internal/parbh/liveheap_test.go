package parbh

import (
	"runtime"
	"testing"

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
// local tree is most of the memory. When trees were built on slab arenas
// sized by a guess and each rank's builder kept a second sorted snapshot
// it never read, this read ≈ 47.5 MB live; one exactly sized node slice
// per build and one snapshot bring it to ≈ 40.5 MB.
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
			Config{Scheme: DPDA, Mode: ForceMode, Alpha: 1, Eps: 0.01, Shipping: LETShipping}, 44},
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
