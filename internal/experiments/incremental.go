package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/tree"
)

// IncrementalTable measures the payoff of temporal coherence on the hot
// step path: per-step host wall-clock of the cold path (from-scratch
// BuildKeyed + the recursive AccelAll, the pre-incremental code)
// against the incremental path (tree.Builder + packet sweep), across
// particle counts and per-step displacement fractions. Both paths are
// bit-identical in every simulated quantity (the golden tests pin this);
// only the host clock below may differ. CI tracks the speedup column
// (BENCH_incremental.json) to catch regressions in the coherence
// machinery.
func IncrementalTable(opt Options) (Table, error) {
	opt = opt.withDefaults()
	tab := Table{
		ID:      "incremental",
		Title:   "cold vs incremental step path, host wall-clock (real seconds, not simulated)",
		Columns: []string{"n", "moved_frac", "cold_step_ms", "incr_step_ms", "speedup", "displaced", "refreshed", "rebuilt"},
		Notes: []string{
			"cold = BuildKeyed + recursive AccelAll each step; incr = Builder.Step + packet sweep",
			"moved_frac particles get a small random displacement between steps; results are bit-identical either way",
		},
	}
	for _, base := range []int{10000, 100000} {
		n := int(float64(base) * opt.Scale * 16)
		if n < 1000 {
			n = 1000
		}
		s, err := dist.Named("g", n, opt.Seed)
		if err != nil {
			return Table{}, err
		}
		// Displacement magnitude: a small fraction of the domain per step,
		// the regime a leapfrog step with a sane dt produces.
		scale := s.Domain.Size().X * 1e-3
		for _, frac := range []float64{0, 0.01, 0.1, 1.0} {
			cold := stepTimes(s, frac, scale, opt.Seed, true, nil)
			var rep tree.BuildReport
			incr := stepTimes(s, frac, scale, opt.Seed, false, &rep)
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprint(n),
				fmt.Sprintf("%g", frac),
				f2(cold.Seconds() * 1e3),
				f2(incr.Seconds() * 1e3),
				f2(cold.Seconds() / incr.Seconds()),
				fmt.Sprint(rep.Displaced),
				fmt.Sprint(rep.Refreshed),
				fmt.Sprint(rep.Rebuilt),
			})
			recordHost(fmt.Sprintf("step-cold[f=%g]", frac), n, cold)
			recordHost(fmt.Sprintf("step-incr[f=%g]", frac), n, incr)
		}
	}
	return tab, nil
}

// stepTimes drives one force-evaluation path for a warmup step plus
// three timed steps, jittering a fraction of the particles between steps
// (outside the timed region), and returns the fastest timed step. The
// same seed drives the jitter for both paths so they see identical
// particle sequences. When rep is non-nil the last incremental build
// report is written to it.
func stepTimes(s *dist.Set, frac, scale float64, seed int64, cold bool, rep *tree.BuildReport) time.Duration {
	bodies := append([]dist.Particle(nil), s.Particles...)
	rng := rand.New(rand.NewSource(seed + int64(frac*1e6)))
	builder := tree.NewBuilder(s.Domain, 8)

	step := func() {
		if cold {
			tr := tree.BuildKeyed(bodies, s.Domain, 8)
			tr.AccelAll(bodies, 0.67, 0.01)
			return
		}
		builder.Step(bodies).AccelSweep(bodies, 0.67, 0.01)
	}

	step() // warmup: first build is cold on both paths
	var best time.Duration
	for i := 0; i < 3; i++ {
		for j := range bodies {
			if frac < 1 && rng.Float64() >= frac {
				continue
			}
			bodies[j].Pos.X += (rng.Float64() - 0.5) * scale
			bodies[j].Pos.Y += (rng.Float64() - 0.5) * scale
			bodies[j].Pos.Z += (rng.Float64() - 0.5) * scale
		}
		start := time.Now()
		step()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	if rep != nil {
		*rep = builder.Last()
	}
	return best
}
