package cluster

import (
	"testing"

	"repro/internal/parbh"
	"repro/internal/transport"
)

// TestCrossTransportGoldenLET pins the full two-clock guarantee for the
// LET engine: a DPDA LET job split across processes yields bit-identical
// simulated time, interaction stats, comm volumes, and accelerations to
// the in-proc run, on both steps.
func TestCrossTransportGoldenLET(t *testing.T) {
	cfg := parbh.Config{
		Scheme:   parbh.DPDA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.LETShipping,
		Alpha:    0.67,
		Eps:      0.01,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	for _, procs := range []int{2, 3} {
		got := meshResults(t, job, procs)
		if len(got) != len(want) {
			t.Fatalf("procs=%d: %d steps, want %d", procs, len(got), len(want))
		}
		for i := range want {
			compareBitIdentical(t, want[i], got[i], i)
		}
	}
}

// TestGoldenRecoveryLETCorrupt wires conn-level chaos through the LET
// bulk exchange: a corrupted LET reply surfaces as a retryable transport
// fault, the Supervisor rebuilds the machine, and the replayed run
// converges to metrics bit-identical to the fault-free run.
func TestGoldenRecoveryLETCorrupt(t *testing.T) {
	cfg := parbh.Config{
		Scheme:   parbh.SPSA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.LETShipping,
		Alpha:    0.67,
		Eps:      0.01,
		GridLog2: 2,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan {
		if gen == 0 {
			return []transport.FaultPlan{{}, {Seed: 41 + chaosSeed, CorruptProb: 0.05}}
		}
		return noFaults(2)
	})
	got, events := runSupervised(t, h, job, nil)
	if h.generation() < 2 {
		t.Fatalf("corruption never forced a rebuild (generations=%d)", h.generation())
	}
	if len(events) == 0 {
		t.Fatal("no recovery events observed")
	}
	if n := h.node(0, 1).Metrics().FaultsCorrupted.Load(); n == 0 {
		t.Error("corruption plan injected nothing")
	}
	for i := range want {
		compareBitIdentical(t, want[i], got[i], i)
	}
}
