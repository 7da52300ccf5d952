package barneshut

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/integrate"
	"repro/internal/tree"
)

// The incremental step path (tree.Builder + packet sweep) must produce
// trajectories and interaction statistics bit-identical to the reference
// kept here: the same integrator over a from-scratch BuildKeyed and the
// recursive traversal every evaluation. The two-clock
// rule says host optimizations may only change the wall clock.
func TestSerialSimIncrementalMatchesCold(t *testing.T) {
	for _, integ := range []string{"leapfrog", "euler", "yoshida4"} {
		t.Run(integ, func(t *testing.T) {
			set := NewPlummer(1500, 1, V3{}, 17)
			cfg := SerialConfig{Alpha: 0.67, Eps: 0.01, DT: 0.005, Integrator: integ}
			warm, err := NewSerialSim(set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			method, err := integrate.New(integ)
			if err != nil {
				t.Fatal(err)
			}
			cold := append([]Particle(nil), set.Particles...)
			var cs InteractionStats
			coldForces := func(ps []Particle) []V3 {
				accls, stats := tree.BuildKeyed(ps, warm.domain, warm.cfg.LeafCap).AccelAll(ps, cfg.Alpha, cfg.Eps)
				cs = stats
				return accls
			}
			for step := 0; step < 6; step++ {
				ws := warm.Step()
				method.Step(cold, cfg.DT, coldForces)
				if ws != cs {
					t.Fatalf("step %d: stats differ: warm %+v cold %+v", step, ws, cs)
				}
				for i, wb := range warm.Bodies() {
					if wb != cold[i] {
						t.Fatalf("step %d: body %d differs:\nwarm %+v\ncold %+v", step, i, wb, cold[i])
					}
				}
			}
			if warm.LastBuild().Cold {
				t.Fatal("warm sim still building cold after 6 steps")
			}
		})
	}
}

// One build path: the one-shot API builds its tree exactly as SerialSim's
// first (cold) step does, so SerialForces equals that step's force
// evaluation bit for bit. Bodies start at rest and one Euler step of
// dt = 1 leaves v = a, which exposes the evaluation.
func TestSerialForcesEqualSerialSimFirstEvaluation(t *testing.T) {
	set := NewPlummer(3000, 1, V3{}, 23)
	for i := range set.Particles {
		set.Particles[i].Vel = V3{}
	}
	want, wantStats := SerialForces(set, 0.67, 0.01, 8)
	sim, err := NewSerialSim(set, SerialConfig{Alpha: 0.67, Eps: 0.01, LeafCap: 8, DT: 1, Integrator: "euler"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Step(); got != wantStats {
		t.Fatalf("stats differ: SerialSim %+v, SerialForces %+v", got, wantStats)
	}
	for _, b := range sim.Bodies() {
		a, w := b.Vel, want[b.ID]
		if math.Float64bits(a.X) != math.Float64bits(w.X) || math.Float64bits(a.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(a.Z) != math.Float64bits(w.Z) {
			t.Fatalf("particle %d: SerialSim %v, SerialForces %v", b.ID, a, w)
		}
	}
}

// Host parallelism must not perturb the incremental path either: the
// trajectory under a multi-worker sweep is bit-identical to the
// single-worker run.
func TestSerialSimInvariantUnderHostParallelism(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	run := func(workers int) []Particle {
		prev := compute.SetMaxWorkers(workers)
		defer compute.SetMaxWorkers(prev)
		set := NewPlummer(9000, 1, V3{}, 29)
		s, err := NewSerialSim(set, SerialConfig{DT: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(3)
		return s.Bodies()
	}

	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("body %d differs across worker counts:\n1: %+v\n4: %+v", i, serial[i], parallel[i])
		}
	}
}

func TestSerialSimEnergyConservation(t *testing.T) {
	set := NewPlummer(800, 1, V3{}, 3)
	s, err := NewSerialSim(set, SerialConfig{Alpha: 0.5, Eps: 0.05, DT: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.TotalEnergyDirect()
	s.Run(25)
	e1 := s.TotalEnergyDirect()
	if drift := math.Abs((e1 - e0) / e0); drift > 0.02 {
		t.Fatalf("energy drift %v over 25 leapfrog steps (E %v -> %v)", drift, e0, e1)
	}
	if s.Steps() != 25 || s.Evals() == 0 {
		t.Fatalf("bookkeeping: steps=%d evals=%d", s.Steps(), s.Evals())
	}
}

func TestSerialSimPhasesAccumulate(t *testing.T) {
	set := NewPlummer(2000, 1, V3{}, 5)
	s, err := NewSerialSim(set, SerialConfig{DT: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	ph := s.Phases()
	if ph.Build <= 0 || ph.Force <= 0 {
		t.Fatalf("phase clocks not accumulating: %+v", ph)
	}
	rep := s.LastBuild()
	if rep.Cold || rep.N != 2000 {
		t.Fatalf("unexpected last build report: %+v", rep)
	}
}

func TestSerialSimEmptySetRejected(t *testing.T) {
	if _, err := NewSerialSim(&ParticleSet{}, SerialConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
}

// TestSerialSimLiveHeap bounds what a serial simulation keeps between
// steps at the size of the performance ledger's serial_g50k: n = 50 000,
// leaf cap 8. It read ≈ 34 MB live when trees were built on slab arenas
// sized by a guess beside a second sorted snapshot, ≈ 20 MB with one
// exactly sized 216-byte node per cell and a flattened copy of the tree,
// and ≈ 15 MB (≈ 300 B per particle) now that the tree is the sweep's
// columns.
func TestSerialSimLiveHeap(t *testing.T) {
	const boundMB = 17
	set, err := NewNamed("g", 50000, 1994)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSerialSim(set, SerialConfig{Alpha: 0.67, Eps: 0.01, DT: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	n := set.N() // the simulation holds its own copy: set must be dead at the GC
	s.Run(3)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	mb := float64(ms.HeapAlloc) / 1e6
	t.Logf("%.1f MB live, %.0f B per particle", mb, float64(ms.HeapAlloc)/float64(n))
	if mb > boundMB {
		t.Errorf("serial simulation holds %.1f MB live after three steps, more than %d MB", mb, boundMB)
	}
}
