package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/tree"
	"repro/internal/vec"
)

// IncrementalTable measures the payoff of temporal coherence on the hot
// step path: per-step host wall-clock of the cold path (a from-scratch
// BuildKeyed) against the incremental path (tree.Builder), across
// particle counts and per-step displacement fractions. Both paths then
// run the packet sweep that production runs, so they differ only in how
// they build. Both are
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
			"cold = BuildKeyed + packet sweep each step; incr = Builder.Step + packet sweep",
			"moved_frac particles get a small random displacement between steps; results are bit-identical either way",
			"cold_step_ms and incr_step_ms are each path's fastest step; speedup is the median over rounds of one cold step's time over its round's incremental step's",
		},
	}
	var rows []*incrRow
	for _, base := range []int{10000, 100000} {
		n := int(float64(base) * opt.Scale * 16)
		if n < 1000 {
			n = 1000
		}
		s, err := dist.Named("g", n, opt.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, frac := range []float64{0, 0.01, 0.1, 1.0} {
			rows = append(rows, newIncrRow(s, frac, opt.Seed))
		}
	}
	// Round r of every row runs before round r+1 of any, so each row's
	// rounds are spread over the whole table: a slow stretch of the host
	// costs each row a few rounds, not all of them. The rows run forward
	// in even rounds and backward in odd ones: a large row's steps evict a
	// small row's working set from the caches, and this way a small row
	// runs straight after a large one only once per two rounds, and that
	// row is the one that moves every particle.
	for r := 0; r < timedRounds; r++ {
		for k := range rows {
			if r%2 == 1 {
				k = len(rows) - 1 - k
			}
			rows[k].round(r)
		}
	}
	for _, row := range rows {
		slices.Sort(row.ratios)
		rep := row.builder.Last()
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(len(row.bodies)),
			fmt.Sprintf("%g", row.frac),
			f2(row.cold.Seconds() * 1e3),
			f2(row.incr.Seconds() * 1e3),
			f2(row.ratios[timedRounds/2]),
			fmt.Sprint(rep.Displaced),
			fmt.Sprint(rep.Refreshed),
			fmt.Sprint(rep.Rebuilt),
		})
		recordHost(fmt.Sprintf("step-cold[f=%g]", row.frac), len(row.bodies), row.cold)
		recordHost(fmt.Sprintf("step-incr[f=%g]", row.frac), len(row.bodies), row.incr)
	}
	return tab, nil
}

// timedRounds is how many timed steps each path takes per row.
const timedRounds = 21

// incrRow drives both force-evaluation paths of one row over one particle
// sequence, jittering a fraction frac of the particles before each round
// (outside the timed region), and keeps each path's fastest timed step
// and each round's ratio cold/incr.
type incrRow struct {
	frac, scale float64
	domain      vec.Box
	bodies      []dist.Particle
	rng         *rand.Rand
	builder     *tree.Builder
	cold, incr  time.Duration
	ratios      []float64
}

// newIncrRow readies a row with one untimed step of each path: the first
// build is cold on both.
func newIncrRow(s *dist.Set, frac float64, seed int64) *incrRow {
	row := &incrRow{
		frac: frac,
		// A small fraction of the domain per step, the regime a leapfrog
		// step with a sane dt produces.
		scale:   s.Domain.Size().X * 1e-3,
		domain:  s.Domain,
		bodies:  append([]dist.Particle(nil), s.Particles...),
		rng:     rand.New(rand.NewSource(seed + int64(frac*1e6))),
		builder: tree.NewBuilder(s.Domain, 8),
	}
	row.step(true)
	row.step(false)
	return row
}

// step times one step of a path, after a collection.
func (row *incrRow) step(cold bool) time.Duration {
	runtime.GC()
	start := time.Now()
	if cold {
		tree.BuildKeyed(row.bodies, row.domain, 8).AccelSweep(row.bodies, 0.67, 0.01)
	} else {
		row.builder.Step(row.bodies).AccelSweep(row.bodies, 0.67, 0.01)
	}
	return time.Since(start)
}

// round jitters the particles and times one step of each path, in an
// order that alternates with r. The two steps are adjacent in time, so
// their ratio is steadier than either time alone.
func (row *incrRow) round(r int) {
	for j := range row.bodies {
		if row.frac < 1 && row.rng.Float64() >= row.frac {
			continue
		}
		row.bodies[j].Pos.X += (row.rng.Float64() - 0.5) * row.scale
		row.bodies[j].Pos.Y += (row.rng.Float64() - 0.5) * row.scale
		row.bodies[j].Pos.Z += (row.rng.Float64() - 0.5) * row.scale
	}
	var cold, incr time.Duration
	if r%2 == 0 {
		cold, incr = row.step(true), row.step(false)
	} else {
		incr, cold = row.step(false), row.step(true)
	}
	if r == 0 {
		row.cold, row.incr = cold, incr
	}
	row.cold, row.incr = min(row.cold, cold), min(row.incr, incr)
	row.ratios = append(row.ratios, cold.Seconds()/incr.Seconds())
}
