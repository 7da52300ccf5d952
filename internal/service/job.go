// Package service implements the simulation job service behind the
// nbodyd daemon: a bounded queue of simulation jobs executed by a worker
// pool, with resume from per-job frame chains in a spool directory,
// NDJSON progress streaming, and a plain-text metrics endpoint.
//
// The service schedules whole simulations across host workers the same
// way the paper's formulations schedule irregular tree work across
// processors: admission control at the queue, dynamic assignment of jobs
// to free workers, and instrumentation of every phase.
package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	barneshut "repro"
	"repro/internal/frames"
	"repro/internal/obsv"
)

// JobSpec is the client-facing description of one simulation job. Zero
// values take the same defaults as the barneshut public API and the
// nbody CLI.
type JobSpec struct {
	// Name is an optional human label.
	Name string `json:"name,omitempty"`
	// Dist names the particle distribution: plummer, g, g2, s_1g_a,
	// s_1g_b, s_10g_a, s_10g_b, uniform (default plummer).
	Dist string `json:"dist,omitempty"`
	// N is the particle count (default 1000).
	N int `json:"n,omitempty"`
	// Seed makes dataset generation reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Processors is the simulated processor count (default 1).
	Processors int `json:"processors,omitempty"`
	// Scheme selects the formulation: spsa, spda, dpda (default spsa).
	Scheme string `json:"scheme,omitempty"`
	// Machine selects the cost profile: ncube2, cm5, ideal (default ncube2).
	Machine string `json:"machine,omitempty"`
	// Mode selects force or potential computation (default force).
	Mode string `json:"mode,omitempty"`
	// Steps is the number of time-steps (force mode) or evaluations
	// (potential mode) to run (default 10).
	Steps int `json:"steps,omitempty"`
	// Alpha is the multipole acceptance parameter (default 0.67).
	Alpha float64 `json:"alpha,omitempty"`
	// Degree is the multipole degree in potential mode (default 4).
	Degree int `json:"degree,omitempty"`
	// Eps is the Plummer softening (default 0).
	Eps float64 `json:"eps,omitempty"`
	// DT is the integrator time-step (default 0.01).
	DT float64 `json:"dt,omitempty"`
	// GridLog2 sets the SPSA/SPDA cluster grid (default 3).
	GridLog2 int `json:"grid_log2,omitempty"`
	// BinSize is the function-shipping batch size (default 100).
	BinSize int `json:"bin_size,omitempty"`
	// Integrator selects leapfrog (default), yoshida4, or euler.
	Integrator string `json:"integrator,omitempty"`
	// Shipping selects the communication strategy: function (default),
	// data, data-naive (uncached data shipping), or let (locally
	// essential trees).
	Shipping string `json:"shipping,omitempty"`
	// FramesKeyEvery overrides the service's frame-store keyframe
	// cadence for this job (0 = service default; negative is invalid).
	FramesKeyEvery int `json:"frames_key_every,omitempty"`
	// Transport selects where the simulated machine's ranks live:
	// inproc (default) runs them in this daemon; tcp spreads them over
	// the worker processes attached to the daemon's cluster coordinator.
	// A tcp job performs distributed force evaluations (no integration)
	// and requires the daemon to be started with a cluster listener.
	Transport string `json:"transport,omitempty"`
	// Trace enables per-rank trace capture for this job; the finished
	// trace is served as Chrome/Perfetto JSON at
	// GET /api/v1/jobs/{id}/trace. Tracing reads the simulated clock but
	// never advances it, so traced and untraced runs produce identical
	// simulated metrics.
	Trace bool `json:"trace,omitempty"`
}

// MaxParticles bounds accepted job sizes; larger requests are rejected
// at submission rather than OOM-ing a worker.
const MaxParticles = 4 << 20

// Validate normalizes the spec in place (filling defaults) and reports
// the first problem found.
func (s *JobSpec) Validate() error {
	if s.Dist == "" {
		s.Dist = "plummer"
	}
	if s.N == 0 {
		s.N = 1000
	}
	if s.N < 1 || s.N > MaxParticles {
		return fmt.Errorf("n must be in [1, %d], got %d", MaxParticles, s.N)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Processors == 0 {
		s.Processors = 1
	}
	if s.Processors < 0 {
		return fmt.Errorf("processors must be positive, got %d", s.Processors)
	}
	if s.Scheme == "" {
		s.Scheme = "spsa"
	}
	if s.Machine == "" {
		s.Machine = "ncube2"
	}
	if s.Mode == "" {
		s.Mode = "force"
	}
	if s.Steps == 0 {
		s.Steps = 10
	}
	if s.Steps < 1 {
		return fmt.Errorf("steps must be positive, got %d", s.Steps)
	}
	if s.FramesKeyEvery < 0 {
		return fmt.Errorf("frames_key_every must be non-negative, got %d", s.FramesKeyEvery)
	}
	if _, err := s.schemeValue(); err != nil {
		return err
	}
	if _, err := s.profileValue(); err != nil {
		return err
	}
	if _, err := s.modeValue(); err != nil {
		return err
	}
	if _, err := s.shippingValue(); err != nil {
		return err
	}
	switch strings.ToLower(s.Transport) {
	case "", "inproc", "tcp":
	default:
		return fmt.Errorf("unknown transport %q (want inproc or tcp)", s.Transport)
	}
	// Dataset and integrator names are validated by their constructors.
	if _, err := barneshut.NewNamed(s.Dist, 1, 1); err != nil {
		return fmt.Errorf("unknown dist %q", s.Dist)
	}
	return nil
}

func (s *JobSpec) schemeValue() (barneshut.Scheme, error) {
	switch strings.ToLower(s.Scheme) {
	case "spsa":
		return barneshut.SPSA, nil
	case "spda":
		return barneshut.SPDA, nil
	case "dpda":
		return barneshut.DPDA, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want spsa, spda, or dpda)", s.Scheme)
}

func (s *JobSpec) profileValue() (barneshut.MachineProfile, error) {
	switch strings.ToLower(s.Machine) {
	case "ncube2":
		return barneshut.NCube2(), nil
	case "cm5":
		return barneshut.CM5(), nil
	case "ideal":
		return barneshut.IdealMachine(), nil
	}
	return barneshut.MachineProfile{}, fmt.Errorf("unknown machine %q (want ncube2, cm5, or ideal)", s.Machine)
}

func (s *JobSpec) modeValue() (barneshut.Mode, error) {
	switch strings.ToLower(s.Mode) {
	case "force":
		return barneshut.ForceMode, nil
	case "potential":
		return barneshut.PotentialMode, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want force or potential)", s.Mode)
}

func (s *JobSpec) shippingValue() (barneshut.Shipping, error) {
	switch strings.ToLower(s.Shipping) {
	case "", "function":
		return barneshut.FunctionShipping, nil
	case "data":
		return barneshut.DataShipping, nil
	case "data-naive":
		return barneshut.DataShippingNaive, nil
	case "let":
		return barneshut.LETShipping, nil
	}
	return 0, fmt.Errorf("unknown shipping %q (want function, data, data-naive, or let)", s.Shipping)
}

// distributed reports whether the spec asks for the TCP cluster
// transport.
func (s JobSpec) distributed() bool {
	return strings.ToLower(s.Transport) == "tcp"
}

// potentialMode reports whether the spec asks for potential-only
// evaluations (no integrated dynamics).
func (s JobSpec) potentialMode() bool {
	return strings.ToLower(s.Mode) == "potential"
}

// stateless reports whether the job's particles never move: a cluster
// job only evaluates forces, a potential-mode job only potentials. Such a
// job's frames have no particle columns, and its whole resume point is
// their header: the step count and the machine time.
func (s JobSpec) stateless() bool { return s.distributed() || s.potentialMode() }

// SimConfig translates the spec into a barneshut.Config. The spec must
// have been validated.
func (s JobSpec) SimConfig() (barneshut.Config, error) {
	scheme, err := s.schemeValue()
	if err != nil {
		return barneshut.Config{}, err
	}
	profile, err := s.profileValue()
	if err != nil {
		return barneshut.Config{}, err
	}
	mode, err := s.modeValue()
	if err != nil {
		return barneshut.Config{}, err
	}
	shipping, err := s.shippingValue()
	if err != nil {
		return barneshut.Config{}, err
	}
	return barneshut.Config{
		Processors: s.Processors,
		Profile:    profile,
		Scheme:     scheme,
		Mode:       mode,
		Alpha:      s.Alpha,
		Degree:     s.Degree,
		Eps:        s.Eps,
		GridLog2:   s.GridLog2,
		BinSize:    s.BinSize,
		DT:         s.DT,
		Integrator: s.Integrator,
		Shipping:   shipping,
	}, nil
}

// NewSimulation builds a fresh simulation for the spec.
func (s JobSpec) NewSimulation() (*barneshut.Simulation, error) {
	set, err := barneshut.NewNamed(s.Dist, s.N, s.Seed)
	if err != nil {
		return nil, err
	}
	cfg, err := s.SimConfig()
	if err != nil {
		return nil, err
	}
	return barneshut.NewSimulation(set, cfg)
}

// resumePoint is where a job's next run starts; the zero value is step
// zero of a fresh simulation.
type resumePoint struct {
	// sim is the restored simulation. Nil makes the worker build a fresh
	// one from the spec — always for a stateless job. The worker that
	// claims the job takes it.
	sim *barneshut.Simulation
	// step is the number of steps already completed; machineTime the
	// simulated machine seconds accumulated over them, so the resumed
	// run's final MachineTime matches an uninterrupted run bit for bit.
	step        int
	machineTime float64
}

// resumeFrom is the one frame-to-simulation restore: f's particles under
// the spec's configuration, with both clocks and the machine-time
// accumulator read off f's header. A stateless job takes only the header:
// the spec rebuilds its particles. Spool recovery hands it the last
// intact frame on disk, SubmitSeeded a replicated keyframe.
func (s JobSpec) resumeFrom(f *frames.Frame) (resumePoint, error) {
	rp := resumePoint{step: int(f.Meta.Step), machineTime: f.Meta.MachineTime}
	if s.stateless() {
		return rp, nil
	}
	cfg, err := s.SimConfig()
	if err == nil {
		rp.sim, err = barneshut.RestoreSimulation(f, cfg)
	}
	if err != nil {
		return resumePoint{}, err
	}
	return rp, nil
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Queued and Running are live; the rest are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is a point-in-time snapshot of a running job, streamed to
// NDJSON subscribers and embedded in job status responses.
type Progress struct {
	// Step is the number of completed steps (including steps completed
	// before a resume).
	Step int `json:"step"`
	// Steps is the target step count from the spec.
	Steps int `json:"steps"`
	// SimTime is the simulation clock (integrator time).
	SimTime float64 `json:"sim_time"`
	// MachineTime is the cumulative simulated parallel machine time in
	// seconds across completed steps.
	MachineTime float64 `json:"machine_time"`
	// Efficiency and Imbalance report the last step's load balance.
	Efficiency float64 `json:"efficiency"`
	Imbalance  float64 `json:"imbalance"`
	// Phases is the last step's simulated seconds per phase, keyed as in
	// the paper's Table 3.
	Phases map[string]float64 `json:"phases,omitempty"`
	// CommWords is the last step's communication volume in 8-byte words.
	CommWords int64 `json:"comm_words,omitempty"`
	// Load, when present, is the last step's per-rank load-imbalance
	// profile on the simulated clock.
	Load *LoadSnapshot `json:"load,omitempty"`
	// Event marks out-of-band lifecycle moments on the progress stream;
	// "recovery" is published when a cluster job survives a transport
	// fault and resumes from Step on a rebuilt machine, and when a worker
	// picks up a job restored from a frame (its chain's last, or a
	// replicated keyframe).
	Event string `json:"event,omitempty"`
	// Fault names the transport fault kind behind a recovery event.
	Fault string `json:"fault,omitempty"`
	// Retries is the number of fault recoveries this job has undergone.
	Retries int `json:"retries,omitempty"`
	// ResumedStep, on a recovery event, is the completed-step count the
	// job restarted from.
	ResumedStep int `json:"resumed_step,omitempty"`
}

// LoadSnapshot summarizes one step's per-rank force-phase work on the
// simulated clock: how long the busiest rank computed, the mean across
// ranks, their ratio (the paper's load-imbalance metric), and the total
// simulated seconds ranks spent idle waiting for the busiest one.
type LoadSnapshot struct {
	MaxSeconds  float64 `json:"max_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	MaxOverMean float64 `json:"max_over_mean"`
	IdleSeconds float64 `json:"idle_seconds"`
	Ranks       int     `json:"ranks"`
}

// loadSnapshot profiles per-rank work; nil when no measurements exist.
func loadSnapshot(work []float64) *LoadSnapshot {
	if len(work) == 0 {
		return nil
	}
	p := obsv.ProfileWork(work)
	return &LoadSnapshot{
		MaxSeconds:  p.Max,
		MeanSeconds: p.Mean,
		MaxOverMean: p.MaxOverMean,
		IdleSeconds: p.IdleTotal,
		Ranks:       len(work),
	}
}

// Result is the final output of a completed job.
type Result struct {
	// Steps and SimTime are the final clock values.
	Steps   int     `json:"steps"`
	SimTime float64 `json:"sim_time"`
	// MachineTime is the total simulated machine seconds consumed.
	MachineTime float64 `json:"machine_time"`
	// KineticEnergy is the final kinetic energy (force mode).
	KineticEnergy float64 `json:"kinetic_energy"`
	// Bodies is the final particle state indexed by ID.
	Bodies []barneshut.Particle `json:"bodies"`
}

// Job is one tracked simulation. All mutable fields are guarded by mu;
// external packages interact through Status snapshots.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	mu       sync.Mutex
	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	retries  int // transport-fault recoveries so far
	// resume is where the job's run starts: set at admission (spool
	// recovery, a seeded submit).
	resume   resumePoint
	progress Progress
	result   *Result
	// trace holds the job's tracer when the spec asked for one; it
	// accumulates across retries and resumes and is served after the job
	// ends (and, read-only, while it runs).
	trace     *obsv.Tracer
	cancelled chan struct{} // closed by Cancel
	subs      map[chan Progress]struct{}
}

// setTrace installs the job's tracer (worker side, before the run).
func (j *Job) setTrace(tr *obsv.Tracer) {
	j.mu.Lock()
	j.trace = tr
	j.mu.Unlock()
}

// Trace returns the job's tracer, or nil when the job is untraced.
func (j *Job) Trace() *obsv.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		created:   now,
		cancelled: make(chan struct{}),
		subs:      make(map[chan Progress]struct{}),
		progress:  Progress{Steps: spec.Steps},
	}
}

// startFrom makes rp the resume point of a job not yet shared with a
// worker and shows it as the job's progress so far.
func (j *Job) startFrom(rp resumePoint) {
	j.resume = rp
	j.progress.Step = rp.step
	j.progress.MachineTime = rp.machineTime
	if rp.sim != nil {
		j.progress.SimTime = rp.sim.Time()
	}
}

// Status is the JSON form of a job's current state.
type Status struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started,omitempty"`
	Finished    time.Time `json:"finished,omitempty"`
	ResumedFrom int       `json:"resumed_from,omitempty"`
	Retries     int       `json:"retries,omitempty"`
	Progress    Progress  `json:"progress"`
}

// Status returns a consistent snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.ID,
		Spec:        j.Spec,
		State:       j.state,
		Error:       j.err,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		ResumedFrom: j.resume.step,
		Retries:     j.retries,
		Progress:    j.progress,
	}
}

// Cancel requests cancellation. It reports whether the request took
// effect (false when the job is already terminal).
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	select {
	case <-j.cancelled:
	default:
		close(j.cancelled)
	}
	return true
}

// canceled reports whether cancellation was requested.
func (j *Job) canceled() bool {
	select {
	case <-j.cancelled:
		return true
	default:
		return false
	}
}

// publish updates progress and fans it out to subscribers without
// blocking: a slow subscriber misses intermediate snapshots rather than
// stalling the worker.
func (j *Job) publish(p Progress) {
	j.mu.Lock()
	j.progress = p
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers a progress channel; the returned function
// unsubscribes it. The current snapshot is delivered immediately.
func (j *Job) subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	ch <- j.progress
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// closeSubs drops all subscribers, waking any streaming handlers.
func (j *Job) closeSubs() {
	j.mu.Lock()
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()
}
