package parbh

import (
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// TestEngineLiveHeap bounds what an engine keeps between steps where the
// ranks are many and the particles few: DPDA on 64 ranks, 5000 particles,
// degree-4 potentials, function shipping. At the commit before the
// replicated top tree became one per process this read ≈ 126 MB live — 40 %
// of it under buildTop (every rank's shipScratch.branchAt kept its own copy
// of the branch cells and their expansions reachable), 41 % under
// shipRun.sweep (a request buffer per destination per rank, each at its own
// high-water mark) — for 0.3 MB of particles. The bound is half of that;
// what is left (≈ 58 MB) is mostly one round of request entries and one
// flat tree per rank.
func TestEngineLiveHeap(t *testing.T) {
	const parentMB = 126
	set := dist.MustNamed("g", 5000, 7)
	e, err := New(msg.NewMachine(64, msg.CM5()), set, Config{Scheme: DPDA, Mode: PotentialMode, Degree: 4, Alpha: 0.67})
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
	if mb > parentMB/2 {
		t.Errorf("engine holds %.1f MB live after three steps, more than half of the %d MB it held with a top tree per rank", mb, parentMB)
	}
}
