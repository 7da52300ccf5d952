package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/frames"
	"repro/internal/obsv"
)

// Errors reported by the service API layer.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity; HTTP maps it to 429.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotDone is returned by Result for jobs that have not completed.
	ErrNotDone = errors.New("service: job has not completed")
	// ErrTerminal is returned by Cancel for jobs already in a terminal
	// state.
	ErrTerminal = errors.New("service: job already terminal")
	// ErrShuttingDown is returned by Submit after Shutdown begins.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrNoTrace is returned by Trace for jobs submitted without trace
	// capture; HTTP maps it to 404.
	ErrNoTrace = errors.New(`service: job has no trace (submit with "trace": true)`)
)

// Options configures a Service.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the number of jobs awaiting a worker beyond the
	// running ones (default 16). Submissions beyond the bound fail with
	// ErrQueueFull.
	QueueDepth int
	// SpoolDir enables resume across restarts when non-empty.
	SpoolDir string
	// CheckpointEvery is read by nothing: every job's frame chain is its
	// checkpoint. The field stays only because benchmark/framestail.go
	// sets it, and goes with that file's next change.
	CheckpointEvery int
	// Clock substitutes a fake clock in tests (default wall clock).
	Clock Clock
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// FramesKeyEvery is the default keyframe cadence of the columnar
	// frame store: every job step is appended to the job's frame chain,
	// with a full keyframe every FramesKeyEvery frames and XOR-delta
	// encoding between (default 16; 0 keeps the default, negative is an
	// error). Frames require a spool; per-job JobSpec.FramesKeyEvery
	// overrides this.
	FramesKeyEvery int
	// FramesMaxBytes bounds one job's frame chain: when an appended
	// keyframe pushes the file past the budget it is compacted in place
	// (old keyframe groups decimated, deltas dropped) until it fits
	// (default 64 MiB; negative disables compaction).
	FramesMaxBytes int64
	// Cluster, when non-nil, lets jobs with transport "tcp" run their
	// ranks across the attached worker processes. Jobs requesting tcp
	// while Cluster is nil are rejected at submission. The supervisor is
	// a job's one recovery loop: its MaxRetries and backoff set how often
	// and how patiently a job survives transport faults before it fails.
	Cluster *cluster.Supervisor
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.FramesKeyEvery == 0 {
		o.FramesKeyEvery = 16
	}
	if o.FramesMaxBytes == 0 {
		o.FramesMaxBytes = 64 << 20
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Service owns the job registry, the bounded admission queue, the
// worker pool, the checkpoint spool, and the metrics. Construct with
// New, start the workers with Start, and stop with Shutdown.
type Service struct {
	opt     Options
	spool   *Spool
	metrics *Metrics

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listing

	queue    chan *Job
	stopping chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// clusterMu serializes distributed jobs: the coordinator drives one
	// job across the worker processes at a time.
	clusterMu sync.Mutex

	// frameHook, when set, observes every keyframe the workers append:
	// the fabric agent replicates the record to its gateway so a
	// re-routed job can resume on another shard. The record is a copy the
	// hook may retain. Called off the worker's hot path only on keyframe
	// steps.
	frameHook atomic.Pointer[func(jobID string, step int64, keyframe []byte)]
}

// SetFrameHook installs fn as the keyframe observer (nil uninstalls).
func (s *Service) SetFrameHook(fn func(jobID string, step int64, keyframe []byte)) {
	if fn == nil {
		s.frameHook.Store(nil)
		return
	}
	s.frameHook.Store(&fn)
}

// notifyFrame invokes the frame hook, if any, with a copy of rec.
func (s *Service) notifyFrame(jobID string, step int64, rec []byte) {
	fn := s.frameHook.Load()
	if fn == nil || len(rec) == 0 {
		return
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	(*fn)(jobID, step, cp)
}

// New builds a Service, scanning the spool (if configured) and
// re-queueing every interrupted job ahead of new submissions.
func New(opt Options) (*Service, error) {
	if opt.FramesKeyEvery < 0 {
		return nil, fmt.Errorf("service: FramesKeyEvery must be non-negative, got %d", opt.FramesKeyEvery)
	}
	opt = opt.withDefaults()
	spool, err := NewSpool(opt.SpoolDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opt:      opt,
		spool:    spool,
		metrics:  newMetrics(opt.Clock),
		jobs:     make(map[string]*Job),
		stopping: make(chan struct{}),
	}
	if spool != nil {
		s.metrics.SetFramesBytesFunc(spool.FramesBytes)
	}
	recovered, errs := spool.Scan()
	for _, e := range errs {
		opt.Logf("nbodyd: spool: %v", e)
	}
	// Size the queue so every recovered job fits ahead of QueueDepth new
	// submissions; recovery happens before Submit can be called.
	s.queue = make(chan *Job, opt.QueueDepth+len(recovered))
	for _, rec := range recovered {
		j := newJob(rec.ID, rec.Spec, opt.Clock.Now())
		j.startFrom(rec.resume)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.queue <- j
		s.metrics.JobsQueued.Add(1)
		s.metrics.JobsResumed.Add(1)
		opt.Logf("nbodyd: recovered job %s from spool at step %d/%d", j.ID, rec.resume.step, rec.Spec.Steps)
	}
	return s, nil
}

// Metrics exposes the service counters (for the HTTP layer and tests).
func (s *Service) Metrics() *Metrics { return s.metrics }

// Start launches the worker pool.
func (s *Service) Start() {
	s.metrics.Workers.Store(int64(s.opt.Workers))
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown stops admission, lets each worker finish (at most) its
// current step and close the job's frame chain, its resume point, and
// waits for the pool to drain or ctx to expire. Queued jobs stay in the
// spool and are recovered by the next daemon.
func (s *Service) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopping) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates and admits a job. It returns ErrQueueFull when the
// queue bound is reached and ErrShuttingDown after Shutdown begins.
func (s *Service) Submit(spec JobSpec) (Status, error) {
	return s.SubmitSeeded(spec, nil)
}

// SubmitSeeded is Submit for a job that resumes from a replicated
// keyframe record (see frames.EncodeKeyframe) instead of starting at step
// zero: the fabric gateway hands the victim shard's last keyframe to the
// shard a re-routed job lands on. A stateless job takes only the record's
// header. An empty or unusable record degrades to a run from scratch,
// never to a rejected job.
func (s *Service) SubmitSeeded(spec JobSpec, keyframe []byte) (Status, error) {
	select {
	case <-s.stopping:
		return Status{}, ErrShuttingDown
	default:
	}
	if err := spec.Validate(); err != nil {
		s.metrics.JobsInvalid.Add(1)
		return Status{}, fmt.Errorf("invalid job: %w", err)
	}
	if spec.distributed() && s.opt.Cluster == nil {
		s.metrics.JobsInvalid.Add(1)
		return Status{}, fmt.Errorf("invalid job: transport tcp requires the daemon to run a cluster coordinator (-cluster-workers)")
	}
	var rp resumePoint
	seeded := false
	if len(keyframe) > 0 {
		frame, err := frames.DecodeKeyframe(keyframe)
		if err == nil {
			rp, err = spec.resumeFrom(frame)
		}
		if err != nil {
			s.opt.Logf("nbodyd: seeded submit: keyframe unusable, starting from scratch: %v", err)
		}
		seeded = err == nil
	}
	j := newJob(s.newJobID(), spec, s.opt.Clock.Now())
	j.startFrom(rp)
	if err := s.spool.PutSpec(j.ID, spec); err != nil {
		return Status{}, fmt.Errorf("service: spooling job: %w", err)
	}
	// Seed the job's frame chain with the keyframe so the resumed run's
	// replay stream is continuous from the resume point even before its
	// first local append.
	if seeded {
		if path := s.spool.FramesPath(j.ID); path != "" {
			if err := frames.WriteSeed(path, keyframe); err != nil {
				s.opt.Logf("nbodyd: seeding frame chain for job %s: %v", j.ID, err)
			}
		}
	}
	s.mu.Lock()
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.JobsQueued.Add(1)
		if seeded {
			s.metrics.FramesSeeded.Add(1)
			s.opt.Logf("nbodyd: job %s seeded from keyframe at step %d/%d", j.ID, rp.step, spec.Steps)
		}
		return j.Status(), nil
	default:
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		s.removeSpool(j.ID)
		if seeded {
			s.spool.RemoveFrames(j.ID) // drop the orphaned seed, if one was written
		}
		return Status{}, ErrQueueFull
	}
}

// Jobs lists all known jobs in submission order.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	return out
}

// Get returns one job's status.
func (s *Service) Get(id string) (Status, error) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.Status(), nil
}

// Cancel requests cancellation of a queued or running job. Queued jobs
// transition immediately; running jobs stop after the current step.
func (s *Service) Cancel(id string) (Status, error) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	if !j.Cancel() {
		return j.Status(), ErrTerminal
	}
	// A queued job has no worker to observe the flag; finalize it here.
	// The spool entry goes before the state flip so a terminal state is
	// never observable while the job could still resurrect on restart.
	j.mu.Lock()
	if j.state == StateQueued {
		s.removeSpool(j.ID)
		j.state = StateCanceled
		j.finished = s.opt.Clock.Now()
		j.mu.Unlock()
		s.metrics.JobsQueued.Add(-1)
		s.metrics.JobsCanceled.Add(1)
		j.closeSubs()
	} else {
		j.mu.Unlock()
	}
	return j.Status(), nil
}

// Result returns the final output of a completed job.
func (s *Service) Result(id string) (*Result, error) {
	j, ok := s.job(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil, ErrNotDone
	}
	return j.result, nil
}

// Trace returns the tracer of a job submitted with Trace: true. The
// tracer is live while the job runs; WriteChrome snapshots it
// consistently at export time.
func (s *Service) Trace(id string) (*obsv.Tracer, error) {
	j, ok := s.job(id)
	if !ok {
		return nil, ErrNotFound
	}
	tr := j.Trace()
	if tr == nil {
		return nil, ErrNoTrace
	}
	return tr, nil
}

// Subscribe returns a progress channel for the job plus an unsubscribe
// function. The current snapshot is delivered first; the channel closes
// when the job reaches a terminal state (immediately, if it already has).
func (s *Service) Subscribe(id string) (<-chan Progress, func(), error) {
	j, ok := s.job(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		// Already finished: hand back a closed channel so consumers fall
		// straight through to the job's final status.
		ch := make(chan Progress)
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	j.mu.Unlock()
	ch, unsub := j.subscribe()
	return ch, unsub, nil
}

func (s *Service) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) removeSpool(id string) {
	if err := s.spool.Remove(id); err != nil {
		s.opt.Logf("nbodyd: removing job %s from spool: %v", id, err)
	}
}

// jobIDCounter disambiguates fallback job IDs minted in the same
// nanosecond.
var jobIDCounter atomic.Uint64

// newJobID returns a random 12-hex-digit job ID. Randomness (not a
// counter) keeps IDs collision-free across daemon restarts sharing a
// spool. A crypto/rand failure is exotic, but a job daemon must not
// crash on one: it degrades to time-seeded IDs — unique within this
// process by the counter, collision-free across restarts merely with
// high probability instead of cryptographically so.
func (s *Service) newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		s.opt.Logf("nbodyd: crypto/rand failed (%v); falling back to time-seeded job IDs", err)
		v := uint64(s.opt.Clock.Now().UnixNano())*0x9E3779B97F4A7C15 + jobIDCounter.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return "j" + hex.EncodeToString(b[:])
}
