package main

import (
	"time"

	barneshut "repro"
	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/vec"
)

const dpdaProcessors = 16

// dpdaConfig is the engine configuration shared by dpda_func_p16 and
// dpda_let_p16; only the shipping strategy differs.
func dpdaConfig(w *workload) parbh.Config {
	cfg := parbh.Config{Scheme: parbh.DPDA, Mode: parbh.ForceMode, Alpha: alpha, Eps: eps, LeafCap: leafCap}
	if w.name == "dpda_let_p16" {
		cfg.Shipping = parbh.LETShipping
	}
	return cfg
}

// runDPDA is dpda_func_p16 and dpda_let_p16: the paper's headline
// formulation on 16 simulated CM5 processors, through function shipping
// or through locally essential trees. Untraced it drives
// barneshut.Simulation; traced it composes integrate →
// Engine.SetParticles → Engine.Step the way Simulation.Step does.
func runDPDA(e *env) error {
	set, err := e.dataset()
	if err != nil {
		return err
	}
	pc := dpdaConfig(e.w)
	var step func() *parbh.Result
	var bodies func() []dist.Particle
	if e.trace == nil {
		sim, err := barneshut.NewSimulation(set, barneshut.Config{
			Processors: dpdaProcessors, Profile: barneshut.CM5(), Scheme: pc.Scheme, Mode: pc.Mode,
			Alpha: pc.Alpha, Eps: pc.Eps, LeafCap: pc.LeafCap, DT: dt, Shipping: pc.Shipping,
		})
		if err != nil {
			return err
		}
		step, bodies = sim.Step, sim.Bodies
	} else {
		step, bodies, err = tracedEngineStep(e, set, pc)
		if err != nil {
			return err
		}
	}

	done := 0
	advance := func() *parbh.Result {
		r := step()
		done++
		if done == e.crcStep {
			e.res.CRCs["at_crc_step"] = stateCRC(bodies())
		}
		return r
	}
	for i := 0; i < e.w.warmup; i++ {
		advance()
	}
	ts := e.beginTimed()
	var acc simAccum
	walls := make([]float64, 0, e.units)
	for i := 0; i < e.units; i++ {
		t0 := time.Now()
		r := advance()
		t1 := time.Now()
		walls = append(walls, t1.Sub(t0).Seconds())
		e.trace.add(0, "step", "", i, t0, t1)
		acc.add(r)
	}
	e.endTimed(ts, e.units, 1)

	res := e.res
	res.Attempted = e.units
	res.Samples["step_s_p50"] = walls
	acc.report(res)
	res.CRCs["final"] = stateCRC(bodies())
	if tr := e.trace; tr != nil {
		n := float64(e.units)
		res.Scalars["parbh.set_particles_s_per_step"] = tr.total["parbh.set_particles"].Seconds() / n
		res.Scalars["integrate.self_s_per_step"] = tr.self("step") / n
		checkSpansCoverWall(e, tr.total["step"].Seconds())
	}
	return nil
}

// tracedEngineStep returns a step function equal to Simulation.Step,
// built from the public integrate and parbh calls it makes, with a span
// around each call into parbh. Engine.Step's host time also feeds
// parbh.step_s_p50.
func tracedEngineStep(e *env, set *dist.Set, cfg parbh.Config) (func() *parbh.Result, func() []dist.Particle, error) {
	method, err := integrate.New("leapfrog")
	if err != nil {
		return nil, nil, err
	}
	engine, err := parbh.New(msg.NewMachine(dpdaProcessors, msg.CM5()), set, cfg)
	if err != nil {
		return nil, nil, err
	}
	state := make([]dist.Particle, set.N())
	for _, q := range set.Particles {
		state[q.ID] = q
	}
	unit := -e.w.warmup // warm-up steps get negative unit ids and no spans
	setParticles := func(ps []dist.Particle) {
		t0 := time.Now()
		engine.SetParticles(ps)
		if unit >= 0 {
			e.trace.add(0, "parbh.set_particles", "step", unit, t0, time.Now())
		}
	}
	var last *parbh.Result
	accel := func(ps []dist.Particle) []vec.V3 {
		setParticles(ps)
		t0 := time.Now()
		last = engine.Step()
		t1 := time.Now()
		if unit >= 0 {
			e.trace.add(0, "parbh.step", "step", unit, t0, t1)
			e.res.Samples["parbh.step_s_p50"] = append(e.res.Samples["parbh.step_s_p50"], t1.Sub(t0).Seconds())
		}
		return last.Accels
	}
	step := func() *parbh.Result {
		method.Step(state, dt, accel)
		setParticles(state)
		unit++
		return last
	}
	return step, func() []dist.Particle { return state }, nil
}
