package parbh

import (
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// The LET engine's whole correctness contract is that it is an
// *implementation strategy*, not a different algorithm: accelerations,
// potentials, and aggregate interaction Stats must be bit-identical to
// function shipping, for every formulation, on every step of a
// multi-step run (so the load-return path that feeds SPDA/DPDA
// rebalancing is exercised too).

func letGoldenCases() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"spsa/force", Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2}},
		{"spda/force", Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2}},
		{"dpda/force", Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01}},
		{"spda/potential", Config{Scheme: SPDA, Mode: PotentialMode, Alpha: 0.67, Degree: 2, GridLog2: 2}},
	}
}

func runShipping(t *testing.T, set *dist.Set, cfg Config, ship Shipping, steps, ranks int) []*Result {
	t.Helper()
	return runShippingMoving(t, set, cfg, ship, steps, ranks, false)
}

// runShippingMoving is runShipping with, when moving, every particle
// pulled 1% toward the domain centre through SetParticles between steps,
// as the time integrator moves them.
func runShippingMoving(t *testing.T, set *dist.Set, cfg Config, ship Shipping, steps, ranks int, moving bool) []*Result {
	t.Helper()
	cfg.Shipping = ship
	m := msg.NewMachine(ranks, msg.CM5())
	e, err := New(m, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	center := e.Domain().Center()
	out := make([]*Result, steps)
	for i := range out {
		out[i] = e.Step()
		if !moving {
			continue
		}
		upd := make([]dist.Particle, set.N())
		for _, part := range e.Parts() {
			for _, q := range part {
				q.Pos = q.Pos.Add(center.Sub(q.Pos).Scale(0.01))
				upd[q.ID] = q
			}
		}
		e.SetParticles(upd)
	}
	return out
}

func compareResults(t *testing.T, want, got *Result, step int) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("step %d: stats = %+v, want %+v", step, got.Stats, want.Stats)
	}
	for i := range want.Accels {
		if got.Accels[i] != want.Accels[i] {
			t.Fatalf("step %d: accel %d = %v, want %v", step, i, got.Accels[i], want.Accels[i])
		}
	}
	for i := range want.Potentials {
		if got.Potentials[i] != want.Potentials[i] {
			t.Fatalf("step %d: potential %d = %v, want %v", step, i, got.Potentials[i], want.Potentials[i])
		}
	}
}

// TestLETMatchesFunctionShipping pins the bit-identity contract over
// three steps per formulation, on frozen particles and on particles that
// move between steps.
func TestLETMatchesFunctionShipping(t *testing.T) {
	set := dist.MustNamed("g", 1500, 42)
	const steps, ranks = 3, 8
	for _, tc := range letGoldenCases() {
		for _, moving := range []bool{false, true} {
			name := tc.name
			if moving {
				name += "/moving"
			}
			t.Run(name, func(t *testing.T) {
				want := runShippingMoving(t, set, tc.cfg, FunctionShipping, steps, ranks, moving)
				got := runShippingMoving(t, set, tc.cfg, LETShipping, steps, ranks, moving)
				for s := range want {
					compareResults(t, want[s], got[s], s)
				}
				if got[0].Phases[PhaseLET] <= 0 {
					t.Errorf("LET exchange phase has no simulated time: %v", got[0].Phases)
				}
			})
		}
	}
}

// TestLETVolumeIndependentOfMotion pins that LET ships a frozen system
// exactly what it ships a moving one: with static partitions and static
// particles nothing about a step differs from the one before, so neither
// may its communication volume.
func TestLETVolumeIndependentOfMotion(t *testing.T) {
	set := dist.MustNamed("g", 1200, 7)
	cfg := Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2}
	got := runShipping(t, set, cfg, LETShipping, 4, 8)
	for s := 1; s < len(got); s++ {
		if got[s].CommWords != got[0].CommWords || got[s].CommMessages != got[0].CommMessages {
			t.Errorf("step %d: %d words in %d messages, step 0 shipped %d in %d", s,
				got[s].CommWords, got[s].CommMessages, got[0].CommWords, got[0].CommMessages)
		}
	}
}

// TestLETInvariantUnderHostParallelism pins GOMAXPROCS-invariance of the
// hybrid intra-rank traversal: the worker-order shard merge must make
// Stats, loads (observable through the next step's rebalancing), and the
// results themselves independent of host parallelism.
func TestLETInvariantUnderHostParallelism(t *testing.T) {
	set := dist.MustNamed("g", 1500, 42)
	cfg := Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2}
	run := func() []*Result { return runShipping(t, set, cfg, LETShipping, 2, 8) }

	old := runtime.GOMAXPROCS(1)
	seq := run()
	runtime.GOMAXPROCS(4)
	par := run()
	runtime.GOMAXPROCS(old)
	for s := range seq {
		compareResults(t, seq[s], par[s], s)
		if seq[s].CommWords != par[s].CommWords {
			t.Errorf("step %d: comm words differ across GOMAXPROCS: %d vs %d",
				s, seq[s].CommWords, par[s].CommWords)
		}
	}
}

// TestNaiveDataShippingMatchesCached pins that the per-visit baseline is
// the same physics as cached data shipping — identical accelerations and
// Stats — while shipping strictly more words (the point of the §4.2
// comparison), and that LET undercuts the naive baseline.
func TestNaiveDataShippingMatchesCached(t *testing.T) {
	set := dist.MustNamed("g", 1200, 7)
	cfg := Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2}
	cached := runShipping(t, set, cfg, DataShipping, 1, 8)[0]
	naive := runShipping(t, set, cfg, DataShippingNaive, 1, 8)[0]
	letR := runShipping(t, set, cfg, LETShipping, 1, 8)[0]

	compareResults(t, cached, naive, 0)
	if naive.CommWords <= cached.CommWords {
		t.Errorf("naive data shipping words = %d, want > cached %d", naive.CommWords, cached.CommWords)
	}
	if letR.CommWords >= naive.CommWords {
		t.Errorf("LET words = %d, want < naive data shipping %d", letR.CommWords, naive.CommWords)
	}
}
