package barneshut

import (
	"fmt"
	"time"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/tree"
	"repro/internal/vec"
)

// SerialConfig parameterizes a SerialSim.
type SerialConfig struct {
	// Alpha is the multipole acceptance parameter (default 0.67).
	Alpha float64
	// Eps is the Plummer force softening (default 0).
	Eps float64
	// LeafCap is the s parameter (default 8).
	LeafCap int
	// DT is the integrator time-step (default 0.01).
	DT float64
	// Integrator selects the time integrator (default "leapfrog").
	Integrator string
}

// StepPhases is the cumulative host-clock breakdown of the hot step
// path. Host time only — no simulated metric is derived from it.
type StepPhases struct {
	Build     time.Duration // octree construction (gather and build over the sorted snapshot)
	Sort      time.Duration // adaptive Morton re-sort
	Force     time.Duration // force sweep
	Integrate time.Duration // integrator arithmetic and bookkeeping
}

// SerialSim advances a particle system with the serial Barnes–Hut method
// on the host: an octree built every step by tree.Builder, which re-sorts
// the previous step's (key, ID) permutation instead of sorting cold,
// feeding the packet sweep over the tree's columns (Tree.AccelSweep),
// under a symplectic integrator. It is the single-machine hot path: the same
// physics as Simulation with Processors=1, without the simulated-machine
// scaffolding.
type SerialSim struct {
	cfg    SerialConfig
	domain vec.Box
	bodies []Particle

	builder *tree.Builder
	method  integrate.Integrator

	stats  InteractionStats // stats of the most recent force evaluation
	phases StepPhases
	evals  int
	time   float64
	steps  int
}

// NewSerialSim builds a serial simulation over a copy of the particle
// set. The set's Domain must enclose the particles for the whole run (it
// anchors the Morton decomposition); when zero it is derived from the
// initial positions.
func NewSerialSim(set *ParticleSet, cfg SerialConfig) (*SerialSim, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.67
	}
	if cfg.LeafCap <= 0 {
		cfg.LeafCap = tree.DefaultLeafCap
	}
	if cfg.DT == 0 {
		cfg.DT = 0.01
	}
	if cfg.Integrator == "" {
		cfg.Integrator = "leapfrog"
	}
	method, err := integrate.New(cfg.Integrator)
	if err != nil {
		return nil, err
	}
	if set.N() == 0 {
		return nil, fmt.Errorf("barneshut: empty particle set")
	}
	domain := set.Domain
	if domain == (vec.Box{}) {
		pts := make([]vec.V3, set.N())
		for i := range set.Particles {
			pts[i] = set.Particles[i].Pos
		}
		domain = vec.BoundingBox(pts).Expand(1e-9)
	}
	s := &SerialSim{
		cfg:     cfg,
		domain:  domain,
		bodies:  append([]Particle(nil), set.Particles...),
		builder: tree.NewBuilder(domain, cfg.LeafCap),
		method:  method,
	}
	return s, nil
}

// Config returns the simulation's effective configuration.
func (s *SerialSim) Config() SerialConfig { return s.cfg }

// Bodies returns the current particle states in input order (a copy).
func (s *SerialSim) Bodies() []Particle {
	return append([]Particle(nil), s.bodies...)
}

// Time returns the current simulation time.
func (s *SerialSim) Time() float64 { return s.time }

// Steps returns the number of completed time-steps.
func (s *SerialSim) Steps() int { return s.steps }

// Evals returns the number of force evaluations performed.
func (s *SerialSim) Evals() int { return s.evals }

// LastStats returns the interaction statistics of the most recent force
// evaluation.
func (s *SerialSim) LastStats() InteractionStats { return s.stats }

// LastBuild returns the tree builder's report for the most recent force
// evaluation.
func (s *SerialSim) LastBuild() tree.BuildReport { return s.builder.Last() }

// Phases returns the cumulative host-clock phase breakdown.
func (s *SerialSim) Phases() StepPhases { return s.phases }

// evalForces is the integrator's acceleration callback: the builder's
// step, then the packet sweep.
func (s *SerialSim) evalForces(ps []dist.Particle, buildDur, sortDur, forceDur *time.Duration) []vec.V3 {
	tb := time.Now()
	tr := s.builder.Step(ps)
	rep := s.builder.Last()
	*sortDur += rep.KeyDur + rep.SortDur
	*buildDur += time.Since(tb) - rep.KeyDur - rep.SortDur
	tf := time.Now()
	accls, stats := tr.AccelSweep(ps, s.cfg.Alpha, s.cfg.Eps)
	*forceDur += time.Since(tf)
	s.stats = stats
	s.evals++
	return accls
}

// Step advances the system by one time-step and returns the interaction
// statistics of the step's last force evaluation.
func (s *SerialSim) Step() InteractionStats {
	t0 := time.Now()
	var buildDur, sortDur, forceDur time.Duration
	s.method.Step(s.bodies, s.cfg.DT, func(ps []dist.Particle) []vec.V3 {
		return s.evalForces(ps, &buildDur, &sortDur, &forceDur)
	})
	s.time += s.cfg.DT
	s.steps++
	total := time.Since(t0)
	s.phases.Build += buildDur
	s.phases.Sort += sortDur
	s.phases.Force += forceDur
	s.phases.Integrate += total - buildDur - sortDur - forceDur
	return s.stats
}

// Run advances the simulation n steps and returns the last step's
// statistics.
func (s *SerialSim) Run(n int) InteractionStats {
	for i := 0; i < n; i++ {
		s.Step()
	}
	return s.stats
}

// KineticEnergy returns the system's kinetic energy.
func (s *SerialSim) KineticEnergy() float64 {
	var ke float64
	for i := range s.bodies {
		ke += 0.5 * s.bodies[i].Mass * s.bodies[i].Vel.Norm2()
	}
	return ke
}

// TotalEnergyDirect returns the exact total energy by direct summation —
// O(n²), intended for validation on modest n.
func (s *SerialSim) TotalEnergyDirect() float64 {
	return direct.TotalEnergy(s.bodies, s.cfg.Eps)
}
