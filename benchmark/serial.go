package main

import (
	"fmt"
	"math"
	"time"

	barneshut "repro"
	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// runSerial is serial_g50k: the single-machine hot path. Untraced it
// drives barneshut.SerialSim; traced it composes the step from the same
// public calls SerialSim.Step makes, with a span around each, and must
// end bit-identical (the parent compares the rounds' state CRCs).
func runSerial(e *env) error {
	set, err := e.dataset()
	if err != nil {
		return err
	}
	cfg := barneshut.SerialConfig{Alpha: alpha, Eps: eps, LeafCap: leafCap, DT: dt}
	var step func() (tree.Stats, tree.BuildReport)
	var bodies func() []dist.Particle
	if e.trace == nil {
		sim, err := barneshut.NewSerialSim(set, cfg)
		if err != nil {
			return err
		}
		step = func() (tree.Stats, tree.BuildReport) { return sim.Step(), sim.LastBuild() }
		bodies = sim.Bodies
	} else {
		step, bodies, err = tracedSerialStep(e, set)
		if err != nil {
			return err
		}
	}

	for i := 0; i < e.w.warmup; i++ {
		step()
	}
	ts := e.beginTimed()
	var stats tree.Stats
	var displaced, refreshed, rebuilt int
	var sortDur time.Duration
	walls := make([]float64, 0, e.units)
	for i := 0; i < e.units; i++ {
		t0 := time.Now()
		st, rep := step()
		t1 := time.Now()
		walls = append(walls, t1.Sub(t0).Seconds())
		e.trace.add(0, "step", "", i, t0, t1)
		stats.Add(st)
		displaced += rep.Displaced
		refreshed += rep.Refreshed
		rebuilt += rep.Rebuilt
		sortDur += rep.KeyDur + rep.SortDur
	}
	e.endTimed(ts, e.units, 1)

	res, n := e.res, float64(e.units)
	res.Attempted = e.units
	res.Samples["step_s_p50"] = walls
	reportStats(res, stats, e.units)
	res.Scalars["tree.leaves_refreshed_per_step"] = float64(refreshed) / n
	res.Scalars["tree.nodes_rebuilt_per_step"] = float64(rebuilt) / n
	res.Scalars["keys.displaced_per_step"] = float64(displaced) / n
	res.Scalars["keys.sort_s_per_step"] = sortDur.Seconds() / n
	// The simulated ledger of a serial run is the paper's extrapolation:
	// the step's flop count on one CM5 node. One processor is balanced.
	res.Scalars["sim_step_s"] = stats.Flops(0) / msg.CM5().FlopRate / n
	res.Scalars["sim_imbalance"] = 1
	final := bodies()
	res.CRCs["final"] = stateCRC(final)

	if tr := e.trace; tr != nil {
		force := tr.total["tree.force"].Seconds()
		// Builder.Step times its own key recomputation and re-sort; the
		// rest of its span is the tree diff/refresh/rebuild.
		res.Scalars["tree.build_s_per_step"] = (tr.total["tree.build"] - sortDur).Seconds() / n
		res.Scalars["tree.flatten_s_per_step"] = tr.total["tree.flatten"].Seconds() / n
		res.Scalars["tree.force_s_per_step"] = force / n
		res.Scalars["tree.minteractions_per_s"] = float64(stats.Interactions()) / force / 1e6
		res.Scalars["integrate.self_s_per_step"] = tr.self("step") / n
		checkSpansCoverWall(e, tr.total["step"].Seconds())
	}
	if e.check {
		rel := forceRelErrRMS(final, set.Domain)
		res.Scalars["tree.force_rel_err_rms"] = rel
		res.check("force_rel_err_rms<=0.02", rel <= 0.02, fmt.Sprintf("rms relative force error %.4g", rel))
	}
	return nil
}

// tracedSerialStep returns a step function made of the public calls
// SerialSim.Step makes — integrate → tree.Builder.Step → tree.Flatten →
// FlatTree.AccelAll — with a span around each call into a layer.
func tracedSerialStep(e *env, set *dist.Set) (func() (tree.Stats, tree.BuildReport), func() []dist.Particle, error) {
	if set.Domain == (vec.Box{}) {
		return nil, nil, fmt.Errorf("dataset %q has no domain", datasetName)
	}
	method, err := integrate.New("leapfrog")
	if err != nil {
		return nil, nil, err
	}
	builder := tree.NewBuilder(set.Domain, leafCap)
	var flat *tree.FlatTree
	state := append([]dist.Particle(nil), set.Particles...)
	var last tree.Stats
	unit := -e.w.warmup // warm-up steps get negative unit ids and no spans
	accel := func(ps []dist.Particle) []vec.V3 {
		t0 := time.Now()
		tr := builder.Step(ps)
		t1 := time.Now()
		flat = tree.Flatten(tr, flat)
		t2 := time.Now()
		accls, st := flat.AccelAll(ps, alpha, eps)
		t3 := time.Now()
		if unit >= 0 {
			e.trace.add(0, "tree.build", "step", unit, t0, t1)
			e.trace.add(0, "tree.flatten", "step", unit, t1, t2)
			e.trace.add(0, "tree.force", "step", unit, t2, t3)
		}
		last = st
		return accls
	}
	step := func() (tree.Stats, tree.BuildReport) {
		method.Step(state, dt, accel)
		unit++
		return last, builder.Last()
	}
	return step, func() []dist.Particle { return state }, nil
}

// checkSpansCoverWall asserts that the per-unit spans (children plus
// self time) add up to the independently measured timed wall within 5 %.
func checkSpansCoverWall(e *env, spanSeconds float64) {
	wall := e.res.Scalars["timed_wall_s"]
	e.res.check("trace_spans_cover_timed_wall", math.Abs(spanSeconds-wall) <= 0.05*wall,
		fmt.Sprintf("spans sum to %.4fs, timed wall is %.4fs", spanSeconds, wall))
}

// forceRelErrRMS is the accuracy yardstick beside the timings: the RMS
// relative error of the tree accelerations against a direct sum over
// 256 evenly sampled particles.
func forceRelErrRMS(bodies []dist.Particle, domain vec.Box) float64 {
	set := &dist.Set{Particles: bodies, Domain: domain}
	approx, _ := barneshut.SerialForces(set, alpha, eps, leafCap) // indexed by ID
	samples := 256
	if samples > len(bodies) {
		samples = len(bodies)
	}
	var num, den float64
	for k := 0; k < samples; k++ {
		pi := &bodies[k*len(bodies)/samples]
		var exact vec.V3
		for j := range bodies {
			pj := &bodies[j]
			if pj.ID == pi.ID {
				continue
			}
			d := pj.Pos.Sub(pi.Pos)
			inv := 1 / math.Sqrt(d.Norm2()+eps*eps)
			exact = exact.Add(d.Scale(pj.Mass * inv * inv * inv))
		}
		num += exact.Sub(approx[pi.ID]).Norm2()
		den += exact.Norm2()
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
