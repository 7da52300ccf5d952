package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/parbh"
	"repro/internal/transport"
)

// Assembler builds one machine generation: a fully admitted transport
// (coordinator listening, workers joined) wrapped in a Coordinator.
// The supervisor calls it again after demolishing a faulted generation,
// so for TCP it must be able to re-listen on the same address.
type Assembler func() (*Coordinator, error)

// RecoveryEvent describes one supervised recovery: what faulted, which
// retry this is, and where the job resumes.
type RecoveryEvent struct {
	Attempt    int                 // 1-based retry count
	Fault      transport.FaultKind // classification of the triggering fault
	Err        error               // the failure that killed the previous generation
	ResumeStep int                 // first step the retry will report
	Wait       time.Duration       // backoff before the retry
}

// Supervisor runs jobs across machine generations: when a run dies of
// a transport-class fault it demolishes the generation (Abort — peers
// observe a crash and rejoin), reassembles, and resumes the job from
// the last completed step with capped exponential backoff between
// attempts. Epochs are threaded across generations so a stale worker's
// frames from before the fault are fenced off by the rebuilt machine.
// It is the one recovery loop of a distributed run: nbody -transport
// tcp, the faults table and nbodyd's tcp jobs all retry through it.
type Supervisor struct {
	// MaxRetries caps recovery attempts per RunFrom call (0 or less =
	// fail on the first fault).
	MaxRetries int
	// BackoffBase is the first inter-attempt delay, doubling up to
	// BackoffMax, each wait jittered (transport.Backoff). Defaults 200ms
	// and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// SetupTimeout and StepTimeout are applied to every Coordinator the
	// supervisor assembles (zero keeps the Coordinator defaults).
	SetupTimeout time.Duration
	StepTimeout  time.Duration
	// Logf, if non-nil, narrates recoveries as formatted lines, the
	// logging shape service.Options and fabric take too.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, is installed on every coordinator this
	// supervisor assembles, so traces span machine generations: a fault,
	// the rebuild, and the replayed steps all land in one capture.
	Tracer *obsv.Tracer

	assemble  Assembler
	coord     *Coordinator
	epochBase uint32
}

// NewSupervisor wraps an assembler. The first machine generation is
// built lazily on the first run (or explicitly via Ensure).
func NewSupervisor(assemble Assembler) *Supervisor {
	return &Supervisor{assemble: assemble, BackoffBase: 200 * time.Millisecond, BackoffMax: 5 * time.Second}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Ensure assembles the current machine generation if none is live.
func (s *Supervisor) Ensure() error {
	if s.coord != nil {
		return nil
	}
	c, err := s.assemble()
	if err != nil {
		return err
	}
	// Epoch continuity across generations: the rebuilt machine keeps
	// counting from where the demolished one stopped, so frames and
	// acks from pre-fault incarnations can never match a live epoch.
	c.epoch = s.epochBase
	if s.SetupTimeout > 0 {
		c.SetupTimeout = s.SetupTimeout
	}
	if s.StepTimeout > 0 {
		c.StepTimeout = s.StepTimeout
	}
	c.Tracer = s.Tracer
	s.coord = c
	return nil
}

// SetTracer installs (or, with nil, removes) the tracer on this
// supervisor and on the live generation's coordinator, if any. The
// service layer calls it per traced job.
func (s *Supervisor) SetTracer(tr *obsv.Tracer) {
	s.Tracer = tr
	if s.coord != nil {
		s.coord.Tracer = tr
	}
}

// discard demolishes the current generation after a failure. Abort, not
// Close: workers blocked mid-step must observe a crash and unwind.
func (s *Supervisor) discard(err error) {
	if s.coord == nil {
		return
	}
	s.epochBase = s.coord.epoch
	s.coord.Abort(err)
	s.coord = nil
}

// Metrics returns the live generation's transport counters, or nil
// between generations.
func (s *Supervisor) Metrics() *transport.Metrics {
	if s.coord == nil {
		return nil
	}
	return s.coord.Metrics()
}

// Run executes the job from step 0 under supervision.
func (s *Supervisor) Run(ctx context.Context, job Job, onStep func(step int, res *parbh.Result) bool, onRecovery func(RecoveryEvent)) (*parbh.Result, error) {
	return s.RunFrom(ctx, job, 0, onStep, onRecovery)
}

// RunFrom executes the job from step from under supervision. Any
// transport-class failure demolishes the machine generation and — up
// to MaxRetries times — reassembles and resumes after the last step
// that was reported, replaying earlier steps silently. onRecovery, if
// non-nil, observes each recovery before its backoff. Non-transport
// failures (bad job, engine bug) are returned immediately; they would
// only recur. ctx ends only the wait between attempts: a done context
// returns its error (wrapping the fault) instead of another attempt,
// and a running step is stopped by onStep, not by ctx.
func (s *Supervisor) RunFrom(ctx context.Context, job Job, from int, onStep func(step int, res *parbh.Result) bool, onRecovery func(RecoveryEvent)) (*parbh.Result, error) {
	resume := from
	backoff := transport.NewBackoff(orDefault(s.BackoffBase, 200*time.Millisecond), orDefault(s.BackoffMax, 5*time.Second), "supervisor")
	for attempt := 0; ; attempt++ {
		if err := s.Ensure(); err != nil {
			err = fmt.Errorf("cluster: assembling machine: %w", err)
			if attempt >= s.MaxRetries {
				return nil, err
			}
			wait := backoff.Next()
			s.logf("cluster: assembly failed (attempt %d/%d, next in %v): %v", attempt+1, s.MaxRetries, wait, err)
			if err := sleep(ctx, wait, err); err != nil {
				return nil, err
			}
			continue
		}
		res, err := s.coord.RunFrom(job, resume, func(step int, r *parbh.Result) bool {
			resume = step + 1
			return onStep == nil || onStep(step, r)
		})
		if err == nil {
			return res, nil
		}
		// Any failure leaves the generation suspect — machines are
		// poisoned, workers may be mid-unwind — so demolish it either
		// way; only transport-class faults are worth a retry.
		s.discard(err)
		if !transport.Retryable(err) || attempt >= s.MaxRetries {
			return nil, err
		}
		ev := RecoveryEvent{Attempt: attempt + 1, Fault: transport.FaultKindOf(err), Err: err, ResumeStep: resume, Wait: backoff.Next()}
		s.logf("cluster: recovering from %s fault (attempt %d/%d, resume step %d, in %v): %v",
			ev.Fault, ev.Attempt, s.MaxRetries, ev.ResumeStep, ev.Wait, ev.Err)
		if onRecovery != nil {
			onRecovery(ev)
		}
		if err := sleep(ctx, ev.Wait, err); err != nil {
			return nil, err
		}
	}
}

// sleep waits d between attempts. When ctx ends first it returns the
// context's error wrapping cause, the failure the wait followed.
func sleep(ctx context.Context, d time.Duration, cause error) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: %w while backing off after: %w", ctx.Err(), cause)
	}
}

// Shutdown releases workers and closes the live generation gracefully.
func (s *Supervisor) Shutdown() error {
	if s.coord == nil {
		return nil
	}
	err := s.coord.Shutdown()
	s.coord = nil
	return err
}

// orDefault is d, or def when d is unset.
func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// RejoinPolicy tunes a worker's rejoin loop.
type RejoinPolicy struct {
	// Max is the number of consecutive failed join/serve cycles before
	// giving up; negative means retry forever. Successful admission
	// resets the count.
	Max int
	// Base is the first backoff between cycles, doubling up to MaxWait,
	// each wait jittered (transport.Backoff). Defaults 200ms and 5s.
	Base    time.Duration
	MaxWait time.Duration
}

// ServeLoop runs a worker under supervision: join the coordinator,
// serve jobs, and — when the machine generation dies under it — abort
// the dead link and rejoin with capped exponential backoff. A graceful
// shutdown from the coordinator ends the loop with nil. This is the
// worker half of the re-admission protocol: the supervisor's rebuilt
// transport admits whichever workers dial back in.
func ServeLoop(join func() (transport.Link, error), pol RejoinPolicy, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	backoff := transport.NewBackoff(orDefault(pol.Base, 200*time.Millisecond), orDefault(pol.MaxWait, 5*time.Second), "worker")
	failures := 0
	var lastErr error
	for {
		link, err := join()
		if err != nil {
			lastErr = err
			failures++
			if pol.Max >= 0 && failures > pol.Max {
				return fmt.Errorf("cluster: worker giving up after %d failed cycle(s): %w", failures, lastErr)
			}
			wait := backoff.Next()
			logf("join failed (cycle %d): %v; retrying in %v", failures, err, wait)
			time.Sleep(wait)
			continue
		}
		failures = 0
		backoff.Reset()
		err = Serve(link, logf)
		if err == nil {
			link.Close()
			return nil
		}
		lastErr = err
		// Abort, not Close: peers of this generation must observe a
		// failure, or ranks blocked on this worker's frames would hang
		// until their own watchdogs fire.
		link.Abort(err)
		failures++
		if pol.Max >= 0 && failures > pol.Max {
			return fmt.Errorf("cluster: worker giving up after %d failed cycle(s): %w", failures, lastErr)
		}
		wait := backoff.Next()
		logf("serve failed (cycle %d): %v; rejoining in %v", failures, err, wait)
		time.Sleep(wait)
	}
}
