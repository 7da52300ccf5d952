package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/tree"
	"repro/internal/vec"
)

// SerialTable measures host wall-clock of the serial-code hot paths:
// octree construction and full force sweeps over every particle. Unlike
// every other experiment it reports *real* seconds, not simulated ones —
// the simulated machine clock is flop-charged and cannot see host-side
// optimizations (exact node allocation, radix sorts, multi-core traversals), which is
// exactly why CI tracks these numbers across commits (BENCH_serial.json)
// to catch regressions in the compute layer.
func SerialTable(opt Options) (Table, error) {
	opt = opt.withDefaults()
	tab := Table{
		ID:    "serial",
		Title: "host wall-clock of serial kernels (real seconds, not simulated)",
		Columns: []string{"n", "gomaxprocs", "build_ms", "force_ms", "interactions",
			"step_ms", "step_build_ms", "step_sort_ms", "step_force_ms", "step_int_ms"},
		Notes: []string{
			"build/force are best-of-3 wall times on this host; all other tables report simulated machine times",
			"build_ms is the cold tree.Builder entry every one-shot build takes (key sort + range build)",
			"step_* columns break one incremental SerialSim time-step (warm, after a cold first build) into phases",
		},
	}
	// Fixed host-benchmark sizes, scaled like the paper datasets so the
	// table stays cheap at reduced scales.
	for _, base := range []int{20000, 100000} {
		n := int(float64(base) * opt.Scale * 16)
		if n < 1000 {
			n = 1000
		}
		s, err := dist.Named("g", n, opt.Seed)
		if err != nil {
			return Table{}, err
		}

		var tr *tree.Tree
		build := bestOf(3, func() {
			tr = tree.Build(s.Particles, tree.Options{LeafCap: 8, Domain: s.Domain})
		})
		var stats tree.Stats
		force := bestOf(3, func() {
			_, stats = tr.AccelAll(s.Particles, 0.67, 0.01)
		})

		// Step-phase breakdown of the incremental hot path: one cold
		// warmup step, then the average over warm steps.
		stepWall, phases, err := stepPhaseBreakdown(s, 3)
		if err != nil {
			return Table{}, err
		}

		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(len(s.Particles)),
			fmt.Sprint(runtime.GOMAXPROCS(0)),
			f2(build.Seconds() * 1e3),
			f2(force.Seconds() * 1e3),
			fmt.Sprint(stats.Interactions()),
			f2(stepWall.Seconds() * 1e3),
			f2(phases[0].Seconds() * 1e3),
			f2(phases[1].Seconds() * 1e3),
			f2(phases[2].Seconds() * 1e3),
			f2(phases[3].Seconds() * 1e3),
		})
		recordHost("tree-build", len(s.Particles), build)
		recordHost("force-sweep", len(s.Particles), force)
		recordHost("sim-step", len(s.Particles), stepWall)
	}
	return tab, nil
}

// stepPhaseBreakdown drives the incremental hot path (tree.Builder +
// packet sweep under a leapfrog integrator — the same loop as the
// root package's SerialSim) for one cold warmup step plus `steps` warm
// steps, and returns the per-step wall time and the per-step averages of
// the build/sort/force/integrate phases.
func stepPhaseBreakdown(s *dist.Set, steps int) (time.Duration, [4]time.Duration, error) {
	method, err := integrate.New("leapfrog")
	if err != nil {
		return 0, [4]time.Duration{}, err
	}
	bodies := append([]dist.Particle(nil), s.Particles...)
	builder := tree.NewBuilder(s.Domain, 8)
	var buildD, sortD, forceD time.Duration
	accel := func(ps []dist.Particle) []vec.V3 {
		t0 := time.Now()
		tr := builder.Step(ps)
		rep := builder.Last()
		sortD += rep.KeyDur + rep.SortDur
		buildD += time.Since(t0) - rep.KeyDur - rep.SortDur
		tf := time.Now()
		a, _ := tr.AccelSweep(ps, 0.67, 0.01)
		forceD += time.Since(tf)
		return a
	}
	const dt = 0.005
	method.Step(bodies, dt, accel) // warmup: cold first build
	buildD, sortD, forceD = 0, 0, 0
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		method.Step(bodies, dt, accel)
	}
	total := time.Since(t0)
	k := time.Duration(steps)
	return total / k, [4]time.Duration{
		buildD / k, sortD / k, forceD / k, (total - buildD - sortD - forceD) / k,
	}, nil
}

// bestOf runs fn reps times and returns the fastest wall time.
func bestOf(reps int, fn func()) time.Duration {
	var best time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// recordHost emits a host wall-clock Record (Scheme "host"; SimSeconds
// stays zero because no simulated machine is involved).
func recordHost(kind string, n int, wall time.Duration) {
	recorder.Lock()
	defer recorder.Unlock()
	if !recorder.active {
		return
	}
	recorder.recs = append(recorder.recs, Record{
		Scheme:      "host",
		Mode:        kind,
		N:           n,
		P:           runtime.GOMAXPROCS(0),
		Machine:     "host",
		WallSeconds: wall.Seconds(),
	})
}
