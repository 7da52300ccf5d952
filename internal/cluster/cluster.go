package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/obsv"
	"repro/internal/parbh"
	"repro/internal/transport"
)

// assignRanks block-partitions ranks over procs: proc i gets a
// contiguous run, earlier procs take the remainder, proc 0 always owns
// rank 0. Identical on every process by construction.
func assignRanks(ranks, procs int) ([]int32, error) {
	if ranks < procs {
		return nil, fmt.Errorf("cluster: %d rank(s) cannot cover %d process(es)", ranks, procs)
	}
	owner := make([]int32, ranks)
	base := ranks / procs
	rem := ranks % procs
	r := 0
	for p := 0; p < procs; p++ {
		n := base
		if p < rem {
			n++
		}
		for i := 0; i < n; i++ {
			owner[r] = int32(p)
			r++
		}
	}
	return owner, nil
}

// Coordinator drives jobs from process 0 of an assembled transport.
// It is not safe for concurrent use: one job at a time.
type Coordinator struct {
	link  transport.Link
	epoch uint32

	// SetupTimeout bounds how long the jobReady barrier waits for each
	// control message; a worker that never acknowledges fails the job
	// with a FaultStall instead of hanging it. Default 60s.
	SetupTimeout time.Duration
	// StepTimeout bounds one engine step on the coordinator. When it
	// expires the machine is interrupted via context and the step
	// returns a FaultStall error — the watchdog that detects a worker
	// dying silently mid-step. 0 disables the watchdog.
	StepTimeout time.Duration
	// Tracer, when non-nil, is attached to every machine this
	// coordinator builds. It captures simulated-clock spans for the
	// ranks hosted by this process (workers' ranks trace in their own
	// processes; shipping those events would itself be communication
	// and violate the tracing-changes-nothing rule). Wrap the link with
	// obsv.WrapLink to capture the host-clock side as well.
	Tracer *obsv.Tracer

	// Control-message fetcher state (see recvHost).
	pending  chan hostEvent
	fetching bool
}

// hostEvent is one resolved HostRecv.
type hostEvent struct {
	src     int
	payload any
	err     error
}

// NewCoordinator wraps an assembled link (proc 0): a transport.Node
// from transport.NewCoordinator + WaitWorkers, or proc 0 of a
// transport.NewMesh machine inside one process.
func NewCoordinator(link transport.Link) (*Coordinator, error) {
	if link.ProcID() != 0 {
		return nil, fmt.Errorf("cluster: coordinator must be proc 0, got %d", link.ProcID())
	}
	return &Coordinator{link: link, SetupTimeout: 60 * time.Second}, nil
}

// recvHost reads the next control message with a deadline. The fetch
// runs on a helper goroutine; on timeout it stays outstanding and the
// next recvHost consumes its result, so messages are never lost. Every
// timeout is fatal for the current machine generation (the caller
// abandons the job and the supervisor demolishes the link), which is
// what bounds the orphaned fetch's lifetime.
func (c *Coordinator) recvHost(timeout time.Duration) (int, any, error) {
	if c.pending == nil {
		c.pending = make(chan hostEvent, 1)
	}
	if !c.fetching {
		c.fetching = true
		pending := c.pending
		go func() {
			src, payload, err := c.link.HostRecv()
			pending <- hostEvent{src: src, payload: payload, err: err}
		}()
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case ev := <-c.pending:
		c.fetching = false
		return ev.src, ev.payload, ev.err
	case <-expired:
		return 0, nil, &transport.TransportError{Kind: transport.FaultStall, Proc: -1,
			Err: fmt.Errorf("no control message within %v", timeout)}
	}
}

// Run executes a job across the member processes and returns the final
// step's result. onStep, if non-nil, observes every step's result on
// the coordinator; returning false stops the job early (workers simply
// receive endJob instead of another stepCmd).
func (c *Coordinator) Run(job Job, onStep func(step int, res *parbh.Result) bool) (*parbh.Result, error) {
	return c.RunFrom(job, 0, onStep)
}

// RunFrom executes a job, replaying steps before from silently: the
// engine runs them (every step's state depends on its predecessors)
// but they are not reported to onStep, because a previous incarnation
// of the job already delivered them before a fault. Cluster jobs never
// integrate particle state, so each step is a deterministic function
// of the job and its index — the replay reproduces bit-identical
// simulated metrics, which is the checkpoint-recovery invariant the
// golden tests pin.
func (c *Coordinator) RunFrom(job Job, from int, onStep func(step int, res *parbh.Result) bool) (*parbh.Result, error) {
	if job.Steps <= 0 {
		return nil, fmt.Errorf("cluster: job needs at least 1 step")
	}
	if len(job.Parts) == 0 {
		return nil, fmt.Errorf("cluster: job has no particles")
	}
	if from < 0 {
		from = 0
	}
	if from >= job.Steps {
		return nil, fmt.Errorf("cluster: resume step %d out of range (job has %d steps)", from, job.Steps)
	}
	c.epoch++
	epoch := c.epoch
	procs := c.link.NumProcs()
	if _, err := assignRanks(job.Ranks, procs); err != nil {
		return nil, err
	}
	for p := 1; p < procs; p++ {
		if err := c.link.HostSend(p, jobStart{Epoch: epoch, Job: job}); err != nil {
			return nil, fmt.Errorf("cluster: starting job on proc %d: %w", p, err)
		}
	}
	eng, err := buildEngine(c.link, epoch, job)
	if err != nil {
		return nil, err
	}
	eng.Machine().SetTracer(c.Tracer)
	// Barrier: every worker must have its engine built and handlers
	// installed before any rank frame can flow, or early frames would
	// hit a link with no machine behind it. Acks from stale epochs —
	// stragglers of a job a previous machine generation abandoned — are
	// skipped, not errors: epoch fencing applies to control traffic too.
	for acks := 0; acks < procs-1; {
		src, payload, err := c.recvHost(c.SetupTimeout)
		if err != nil {
			return nil, fmt.Errorf("cluster: waiting for workers: %w", err)
		}
		ack, ok := payload.(jobReady)
		if !ok {
			return nil, fmt.Errorf("cluster: proc %d sent %T during job setup, want jobReady", src, payload)
		}
		if ack.Epoch != epoch {
			continue // stale job incarnation
		}
		if ack.Err != "" {
			for p := 1; p < procs; p++ {
				c.link.HostSend(p, endJob{Epoch: epoch})
			}
			return nil, fmt.Errorf("cluster: proc %d failed to start job: %s", src, ack.Err)
		}
		acks++
	}
	var last *parbh.Result
	var stepErr error
	for s := 0; s < job.Steps; s++ {
		for p := 1; p < procs; p++ {
			if err := c.link.HostSend(p, stepCmd{Epoch: epoch, Step: int32(s)}); err != nil {
				return nil, fmt.Errorf("cluster: step %d on proc %d: %w", s, p, err)
			}
		}
		res, err := c.runStep(eng)
		if err != nil {
			stepErr = err
			break
		}
		if s < from {
			continue // replayed: reported by the pre-fault incarnation
		}
		last = res
		if onStep != nil && !onStep(s, res) {
			break
		}
	}
	for p := 1; p < procs; p++ {
		if err := c.link.HostSend(p, endJob{Epoch: epoch}); err != nil && stepErr == nil {
			stepErr = fmt.Errorf("cluster: ending job on proc %d: %w", p, err)
		}
	}
	if stepErr != nil {
		return nil, stepErr
	}
	return last, nil
}

// runStep executes one coordinator-side engine step under the step
// watchdog: if the step outlives StepTimeout — a worker died without
// its connection resetting, or frames were dropped on the floor — the
// machine is cancelled via context and the step fails with FaultStall.
func (c *Coordinator) runStep(eng *parbh.Engine) (*parbh.Result, error) {
	if c.StepTimeout <= 0 {
		return runStep(eng)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.StepTimeout)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				eng.Machine().Interrupt(&transport.TransportError{Kind: transport.FaultStall, Proc: -1,
					Err: fmt.Errorf("step exceeded %v: %w", c.StepTimeout, ctx.Err())})
			}
		case <-done:
		}
	}()
	return runStep(eng)
}

// Abort demolishes the coordinator's machine generation ungracefully:
// peers observe the loss and unwind. Used by the supervisor before
// rebuilding; Shutdown remains the graceful path.
func (c *Coordinator) Abort(err error) { c.link.Abort(err) }

// Shutdown releases the worker processes (they exit Serve) and closes
// the coordinator's link.
func (c *Coordinator) Shutdown() error {
	for p := 1; p < c.link.NumProcs(); p++ {
		c.link.HostSend(p, shutdown{})
	}
	return c.link.Close()
}

// Metrics exposes the coordinator link's transport counters.
func (c *Coordinator) Metrics() *transport.Metrics { return c.link.Metrics() }

// buildEngine constructs this process's share of the distributed
// machine and engine for one job. Deterministic given the job, so
// every process bootstraps identical ownership state.
func buildEngine(link transport.Link, epoch uint32, job Job) (*parbh.Engine, error) {
	owner, err := assignRanks(job.Ranks, link.NumProcs())
	if err != nil {
		return nil, err
	}
	machine := msg.NewNetworkMachine(link, owner, epoch, job.Profile)
	set := &dist.Set{Particles: job.Parts, Domain: job.Domain}
	return parbh.New(machine, set, job.Config)
}

// runStep executes one engine step. Transport failures come back as
// typed errors from StepErr (their TransportError classification is
// what supervisors key retry policy on); a genuine panic in the engine
// is converted to an error too, so a worker reports and rejoins rather
// than crashing its process.
func runStep(eng *parbh.Engine) (res *parbh.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: step failed: %v", r)
		}
	}()
	res, err = eng.StepErr()
	if err != nil {
		err = fmt.Errorf("cluster: step failed: %w", err)
	}
	return res, err
}

// Serve runs a worker process's control loop until the coordinator
// shuts it down or the transport fails. logf may be nil.
func Serve(link transport.Link, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		_, payload, err := link.HostRecv()
		if err != nil {
			return fmt.Errorf("cluster: worker control channel: %w", err)
		}
		switch v := payload.(type) {
		case jobStart:
			logf("job %q: %d ranks over %d procs, %d steps, scheme %v",
				v.Job.Name, v.Job.Ranks, link.NumProcs(), v.Job.Steps, v.Job.Config.Scheme)
			eng, err := buildEngine(link, v.Epoch, v.Job)
			if err != nil {
				logf("job %q rejected: %v", v.Job.Name, err)
				if serr := link.HostSend(0, jobReady{Epoch: v.Epoch, Err: err.Error()}); serr != nil {
					return fmt.Errorf("cluster: worker control channel: %w", serr)
				}
				continue
			}
			if err := link.HostSend(0, jobReady{Epoch: v.Epoch}); err != nil {
				return fmt.Errorf("cluster: worker control channel: %w", err)
			}
			if err := serveJob(link, eng, v); err != nil {
				if err == errShutdown {
					logf("shutdown")
					return nil
				}
				return err
			}
			logf("job %q done", v.Job.Name)
		case stepCmd, endJob:
			// Stragglers from a job this worker already left (e.g. the
			// coordinator releasing everyone after a failed start).
		case shutdown:
			logf("shutdown")
			return nil
		default:
			logf("ignoring unexpected control payload %T", payload)
		}
	}
}

// serveJob runs one job's steps as commanded by the coordinator.
func serveJob(link transport.Link, eng *parbh.Engine, js jobStart) error {
	for {
		_, payload, err := link.HostRecv()
		if err != nil {
			return fmt.Errorf("cluster: worker control channel: %w", err)
		}
		switch v := payload.(type) {
		case stepCmd:
			if v.Epoch != js.Epoch {
				continue // stale
			}
			if _, err := runStep(eng); err != nil {
				return err
			}
		case endJob:
			if v.Epoch == js.Epoch {
				return nil
			}
		case shutdown:
			return errShutdown
		default:
			return fmt.Errorf("cluster: unexpected control payload %T during job", payload)
		}
	}
}

// errShutdown propagates a shutdown received mid-job out of serveJob.
var errShutdown = fmt.Errorf("cluster: shutdown requested")
