package barneshut

import (
	"fmt"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/parbh"
)

// Config parameterizes a Simulation.
type Config struct {
	// Processors is the number of simulated processors (default 1). The
	// SPSA/SPDA schemes require a power of two.
	Processors int
	// Profile is the simulated machine (default NCube2()).
	Profile MachineProfile
	// Scheme selects the parallel formulation (default SPSA).
	Scheme Scheme
	// Mode selects forces (default) or potentials.
	Mode Mode
	// Alpha is the multipole acceptance parameter (default 0.67).
	Alpha float64
	// Degree is the multipole degree in PotentialMode (default 4).
	Degree int
	// Eps is the Plummer force softening (default 0).
	Eps float64
	// LeafCap is the s parameter: max particles per leaf (default 8).
	LeafCap int
	// GridLog2 sets the SPSA/SPDA cluster grid to 2^GridLog2 per
	// dimension (default 3, i.e. 512 clusters).
	GridLog2 int
	// BinSize is the function-shipping batch size (default 100).
	BinSize int
	// DT is the integrator time-step (default 0.01).
	DT float64
	// Integrator selects the time integrator: "leapfrog" (default,
	// 2nd-order symplectic KDK), "yoshida4" (4th-order symplectic), or
	// "euler".
	Integrator string
	// Shipping, BranchLookup, Ordering, TreeBuild select implementation
	// variants; zero values give the paper's defaults (function shipping,
	// hash lookup, Morton ordering, broadcast-based construction).
	Shipping     Shipping
	BranchLookup Lookup
	Ordering     Ordering
	TreeBuild    TreeBuild
}

// Engine returns the force engine's share of the configuration.
func (c Config) Engine() parbh.Config {
	return parbh.Config{
		Scheme:       c.Scheme,
		Mode:         c.Mode,
		Alpha:        c.Alpha,
		Degree:       c.Degree,
		Eps:          c.Eps,
		LeafCap:      c.LeafCap,
		GridLog2:     c.GridLog2,
		BinSize:      c.BinSize,
		Shipping:     c.Shipping,
		BranchLookup: c.BranchLookup,
		Ordering:     c.Ordering,
		TreeBuild:    c.TreeBuild,
	}
}

// Simulation advances a particle system through time using one of the
// parallel Barnes–Hut formulations for the force computation and a
// kick-drift-kick leapfrog integrator for the dynamics.
type Simulation struct {
	cfg     Config
	machine *msg.Machine
	engine  *parbh.Engine
	method  integrate.Integrator

	bodies []Particle // authoritative state, indexed by particle ID
	accel  []V3       // accelerations at the current positions
	time   float64
	steps  int
	last   *StepResult
}

// NewSimulation builds a simulation over a copy of the particle set.
func NewSimulation(set *ParticleSet, cfg Config) (*Simulation, error) {
	return newSimulation(set, cfg, Box{})
}

// newSimulation is NewSimulation with the engine's root cell (zero: the
// cube around the set's domain).
func newSimulation(set *ParticleSet, cfg Config, root Box) (*Simulation, error) {
	if cfg.Processors == 0 {
		cfg.Processors = 1
	}
	if cfg.Processors < 0 {
		return nil, fmt.Errorf("barneshut: invalid processor count %d", cfg.Processors)
	}
	if cfg.Profile == (MachineProfile{}) {
		cfg.Profile = NCube2()
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
	machine := msg.NewMachine(cfg.Processors, cfg.Profile)
	ecfg := cfg.Engine()
	ecfg.Root = root
	engine, err := parbh.New(machine, set, ecfg)
	if err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, machine: machine, engine: engine, method: method}
	s.bodies = make([]Particle, set.N())
	for _, q := range set.Particles {
		s.bodies[q.ID] = q
	}
	return s, nil
}

// Config returns the simulation's effective configuration.
func (s *Simulation) Config() Config { return s.cfg }

// SetTracer attaches an observability tracer to the simulated machine;
// nil detaches. Tracing records per-rank phase spans and message
// instants without perturbing any simulated metric (see internal/obsv).
// Attach it before stepping.
func (s *Simulation) SetTracer(tr *Tracer) { s.machine.SetTracer(tr) }

// Tracer returns the attached tracer (nil when tracing is off).
func (s *Simulation) Tracer() *Tracer { return s.machine.Tracer() }

// Bodies returns the current particle states indexed by ID (a copy).
func (s *Simulation) Bodies() []Particle {
	out := make([]Particle, len(s.bodies))
	copy(out, s.bodies)
	return out
}

// BodiesView returns the current particle states indexed by ID without
// copying them. The slice is the simulation's own: read-only, and valid
// until the next Step, which advances it in place.
func (s *Simulation) BodiesView() []Particle { return s.bodies }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.time }

// Steps returns the number of completed time-steps.
func (s *Simulation) Steps() int { return s.steps }

// LastResult returns the most recent force-computation result (nil
// before the first step).
func (s *Simulation) LastResult() *StepResult { return s.last }

// ComputeForces runs one parallel force (or potential) computation at the
// current positions without advancing the dynamics.
func (s *Simulation) ComputeForces() *StepResult {
	res := s.engine.Step()
	s.last = res
	if res.Accels != nil {
		s.accel = res.Accels
	}
	return res
}

// Step advances the system by one time-step of the configured integrator
// (kick-drift-kick leapfrog by default). Every force evaluation runs on
// the simulated parallel machine; the last evaluation's result is
// returned. Step panics in PotentialMode (potentials carry no dynamics);
// use ComputeForces.
func (s *Simulation) Step() *StepResult {
	if s.cfg.Mode == PotentialMode {
		panic("barneshut: Step requires ForceMode; use ComputeForces for potentials")
	}
	accelFn := func(ps []dist.Particle) []V3 {
		s.engine.SetParticles(ps)
		res := s.engine.Step()
		s.last = res
		s.accel = res.Accels
		return res.Accels
	}
	s.method.Step(s.bodies, s.cfg.DT, accelFn)
	s.engine.SetParticles(s.bodies)
	s.time += s.cfg.DT
	s.steps++
	return s.last
}

// Run advances the simulation n steps and returns the last result.
func (s *Simulation) Run(n int) *StepResult {
	var res *StepResult
	for i := 0; i < n; i++ {
		res = s.Step()
	}
	return res
}

// KineticEnergy returns the system's kinetic energy.
func (s *Simulation) KineticEnergy() float64 {
	var ke float64
	for i := range s.bodies {
		ke += 0.5 * s.bodies[i].Mass * s.bodies[i].Vel.Norm2()
	}
	return ke
}

// TotalEnergyDirect returns the exact total energy by direct summation —
// O(n²), intended for validation on modest n.
func (s *Simulation) TotalEnergyDirect() float64 {
	return direct.TotalEnergy(s.bodies, s.cfg.Eps)
}

var _ = dist.Particle{} // keep the dist import tied to the type aliases
