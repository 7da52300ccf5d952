package parbh

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/tree"
)

// The host-performance layer (multi-core traversals, radix sorts, arenas,
// buffer pools) must never perturb the paper-facing *simulated* metrics.
// These tests pin that invariant two ways: everything a step reports on the
// simulated machine — interaction Stats, communication words/messages,
// branch counts, the force results, and the clock itself: SimTime,
// Imbalance, every phase, every rank's Stats — must be bit-identical across
// host parallelism levels, and the counters must match golden values
// recorded before the host optimizations landed.
//
// The clock is included for function shipping too: its protocol polls for
// remote work between particles, and what a poll finds is decided on msg's
// ordered machine from the simulated stamps alone (see funcship.go), never
// by which goroutine the host ran first.

func stepOnce(t *testing.T, scheme Scheme) *Result {
	t.Helper()
	return stepsOf(t, Config{Scheme: scheme, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 4}, 1)
}

// stepsOf runs steps of cfg on the fixture and returns the last one's result.
func stepsOf(t *testing.T, cfg Config, steps int) *Result {
	t.Helper()
	s := dist.MustNamed("g", 3000, 99)
	m := msg.NewMachine(8, msg.CM5())
	e, err := New(m, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for i := 0; i < steps; i++ {
		res = e.Step()
	}
	return res
}

// sameStep demands that two runs of one step agree to the last bit in
// everything the simulated machine reports.
func sameStep(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("stats differ: %+v vs %+v", want.Stats, got.Stats)
	}
	if got.CommWords != want.CommWords || got.CommMessages != want.CommMessages {
		t.Errorf("comm differs: %d/%d vs %d/%d", want.CommWords, want.CommMessages, got.CommWords, got.CommMessages)
	}
	if got.BranchNodes != want.BranchNodes {
		t.Errorf("branch nodes differ: %d vs %d", want.BranchNodes, got.BranchNodes)
	}
	for i := range want.Accels {
		if !bitsEqual(got.Accels[i], want.Accels[i]) {
			t.Fatalf("accel %d differs: %v vs %v", i, want.Accels[i], got.Accels[i])
		}
	}
	for i := range want.Potentials {
		if math.Float64bits(got.Potentials[i]) != math.Float64bits(want.Potentials[i]) {
			t.Fatalf("potential %d differs: %v vs %v", i, want.Potentials[i], got.Potentials[i])
		}
	}
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s differs: %.17g vs %.17g", what, a, b)
		}
	}
	same("SimTime", want.SimTime, got.SimTime)
	same("Imbalance", want.Imbalance, got.Imbalance)
	if len(got.Phases) != len(want.Phases) {
		t.Errorf("phase sets differ: %v vs %v", want.Phases, got.Phases)
	}
	for name, v := range want.Phases {
		same("phase "+name, v, got.Phases[name])
	}
	for r := range want.RankForce {
		same(fmt.Sprint("RankForce of rank ", r), want.RankForce[r], got.RankForce[r])
		if got.ProcStats[r] != want.ProcStats[r] {
			t.Errorf("rank %d stats differ: %+v vs %+v", r, want.ProcStats[r], got.ProcStats[r])
		}
	}
}

// TestStepInvariantUnderHostParallelism runs the second step (so SPDA and
// DPDA have rebalanced once) of every scheme, in force and in potential
// mode, under bins of one entry, a size that splits key groups, the
// paper's 100 and never flushing early, at GOMAXPROCS 1, 2 and 7.
func TestStepInvariantUnderHostParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, mode := range []Mode{ForceMode, PotentialMode} {
				for _, binSize := range []int{1, 7, 100, 1 << 20} {
					t.Run(fmt.Sprintf("%v/bin%d", mode, binSize), func(t *testing.T) {
						cfg := Config{Scheme: scheme, Mode: mode, Alpha: 0.67, Eps: 0.01, Degree: 2, GridLog2: 3, BinSize: binSize}
						runtime.GOMAXPROCS(1)
						want := stepsOf(t, cfg, 2)
						if want.SimTime <= 0 {
							t.Fatalf("non-positive sim time %v", want.SimTime)
						}
						for _, procs := range []int{2, 7} {
							runtime.GOMAXPROCS(procs)
							sameStep(t, want, stepsOf(t, cfg, 2))
						}
					})
				}
			}
		})
	}
}

// TestStepSimulatedMetricsGolden pins the simulated interaction counters
// and communication volume per scheme to the values the engine produced
// before the host-performance layer existed. A host-side "optimization"
// that changes any of these has changed the simulation, not just made it
// faster.
func TestStepSimulatedMetricsGolden(t *testing.T) {
	golden := map[Scheme]struct {
		stats tree.Stats
		words int64
	}{
		SPSA: {tree.Stats{MACTests: 417825, PC: 241787, PP: 1604592}, 1252023},
		SPDA: {tree.Stats{MACTests: 417825, PC: 241787, PP: 1604592}, 1373207},
		DPDA: {tree.Stats{MACTests: 361430, PC: 225970, PP: 1632296}, 606638},
	}
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			res := stepOnce(t, scheme)
			want := golden[scheme]
			if res.Stats != want.stats {
				t.Errorf("stats drifted: got %+v want %+v", res.Stats, want.stats)
			}
			if res.CommWords != want.words {
				t.Errorf("comm words drifted: got %d want %d", res.CommWords, want.words)
			}
		})
	}
}
