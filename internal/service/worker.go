package service

import (
	"cmp"
	"context"
	"os"

	barneshut "repro"
	"repro/internal/cluster"
	"repro/internal/frames"
	"repro/internal/obsv"
)

// jobTracer returns the tracer for a traced job, creating it on the
// first run and reusing it across retries and resumes so one capture
// spans the whole job.
func jobTracer(j *Job) *obsv.Tracer {
	if !j.Spec.Trace {
		return nil
	}
	if tr := j.Trace(); tr != nil {
		return tr
	}
	tr := obsv.New()
	j.setTrace(tr)
	return tr
}

// worker drains the queue until Shutdown. Each dequeued job runs to a
// terminal state unless shutdown interrupts it, in which case its frame
// chain holds its resume point and the job is left for the next daemon.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopping:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// claim moves a queued job to running, or reports that it should be
// skipped (canceled while queued).
func (s *Service) claim(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false // finalized while queued (Cancel won the race)
	}
	if j.canceled() {
		s.removeSpool(j.ID)
		j.state = StateCanceled
		j.finished = s.opt.Clock.Now()
		s.metrics.JobsQueued.Add(-1)
		s.metrics.JobsCanceled.Add(1)
		defer j.closeSubs()
		return false
	}
	j.state = StateRunning
	j.started = s.opt.Clock.Now()
	s.metrics.JobsQueued.Add(-1)
	s.metrics.JobsRunning.Add(1)
	return true
}

// runJob executes one job to completion, cancellation, failure, or
// shutdown.
func (s *Service) runJob(j *Job) {
	if !s.claim(j) {
		return
	}
	spec := j.Spec
	if spec.distributed() {
		s.runClusterJob(j)
		return
	}
	potential := spec.potentialMode()

	j.mu.Lock()
	sim, step, machineTime := j.resume.sim, j.resume.step, j.resume.machineTime
	j.resume.sim = nil // this run owns it now
	j.mu.Unlock()
	if sim == nil {
		var err error
		sim, err = spec.NewSimulation()
		if err != nil {
			s.fail(j, err)
			return
		}
	}
	if step > 0 {
		// Announce the resume point on the progress stream before the
		// first new step, mirroring the cluster path's recovery events.
		j.publish(Progress{
			Step:        step,
			Steps:       spec.Steps,
			SimTime:     sim.Time(),
			MachineTime: machineTime,
			Event:       "recovery",
			ResumedStep: step,
		})
	}

	sim.SetTracer(jobTracer(j))

	// Open the job's frame chain: its checkpoint. Every completed step is
	// appended; the columnar record is gathered from the same bodies the
	// result reports, so frame capture never perturbs a simulated metric.
	// A potential-mode frame is its header alone.
	fw := s.openFrames(j, int64(step))
	defer func() { s.closeFrames(j, fw) }()
	framed := sim // whose particles each frame records
	if potential {
		framed = nil
	}

	for step < spec.Steps {
		select {
		case <-s.stopping:
			// Graceful shutdown: the chain already ends at the last
			// completed step; walk away without a terminal transition —
			// the job is still live, just not in this process.
			s.metrics.JobsRunning.Add(-1)
			return
		default:
		}
		if j.canceled() {
			s.finish(j, StateCanceled, nil, "")
			return
		}
		var res *barneshut.StepResult
		if potential {
			res = sim.ComputeForces()
		} else {
			res = sim.Step()
		}
		step++
		fw, machineTime = s.stepDone(j, fw, framed, step, machineTime, res, Progress{SimTime: sim.Time()})
	}

	res := &Result{
		Steps:         step,
		SimTime:       sim.Time(),
		MachineTime:   machineTime,
		KineticEnergy: sim.KineticEnergy(),
		Bodies:        sim.Bodies(),
	}
	s.finish(j, StateDone, res, "")
}

// runClusterJob executes one distributed job through the cluster
// supervisor: every step is a force evaluation spread across the
// attached worker processes. Distributed jobs do not integrate, so their
// frames are headers alone: a step index plus the machine-time
// accumulator. A transport-class fault is recovered in place by the
// supervisor, which rebuilds the machine, replays the earlier steps
// silently and picks up reporting where the fault hit, up to its
// MaxRetries; the job keeps its worker, its frame chain and the cluster
// lock throughout. Its context ends on cancel or shutdown, which cuts a
// recovery's backoff short.
func (s *Service) runClusterJob(j *Job) {
	spec := j.Spec
	set, err := barneshut.NewNamed(spec.Dist, spec.N, spec.Seed)
	if err != nil {
		s.fail(j, err)
		return
	}
	cfg, err := spec.SimConfig()
	if err != nil {
		s.fail(j, err)
		return
	}
	job := cluster.Job{
		Name:    j.ID,
		Ranks:   cfg.Processors,
		Steps:   spec.Steps,
		Profile: cfg.Profile,
		Config:  cfg.Engine(),
		Domain:  set.Domain,
		Parts:   set.Particles,
	}
	j.mu.Lock()
	step, machineTime := j.resume.step, j.resume.machineTime
	j.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-j.cancelled:
		case <-s.stopping:
		case <-ctx.Done():
		}
		cancel()
	}()

	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	fw := s.openFrames(j, int64(step))
	defer func() { s.closeFrames(j, fw) }()
	// The cluster supervisor is shared across jobs, so the tracer is
	// installed only while this job holds the cluster lock.
	if tr := jobTracer(j); tr != nil {
		s.opt.Cluster.SetTracer(tr)
		defer s.opt.Cluster.SetTracer(nil)
	}
	retries := 0
	stopped := false
	_, err = s.opt.Cluster.RunFrom(ctx, job, step, func(n int, res *barneshut.StepResult) bool {
		select {
		case <-s.stopping:
			stopped = true
			return false
		default:
		}
		if j.canceled() {
			return false
		}
		step = n + 1
		fw, machineTime = s.stepDone(j, fw, nil, step, machineTime, res, Progress{Retries: retries})
		return true
	}, func(ev cluster.RecoveryEvent) {
		retries = ev.Attempt
		j.mu.Lock()
		j.retries = retries
		j.mu.Unlock()
		s.metrics.JobsRetried.Add(1)
		s.metrics.RecordRecovery(ev.Fault)
		s.opt.Logf("nbodyd: job %s hit %s fault at step %d (retry %d/%d in %v): %v",
			j.ID, ev.Fault, step, retries, s.opt.Cluster.MaxRetries, ev.Wait, ev.Err)
		j.publish(Progress{
			Step:        step,
			Steps:       spec.Steps,
			MachineTime: machineTime,
			Event:       "recovery",
			Fault:       ev.Fault.String(),
			Retries:     retries,
		})
	})
	switch {
	case stopped || err != nil && ctx.Err() != nil && !j.canceled():
		// Shutdown mid-job or mid-backoff: no terminal transition; the
		// spooled spec and the chain re-queue the job at this step in
		// the next daemon.
		s.metrics.JobsRunning.Add(-1)
	case j.canceled():
		s.finish(j, StateCanceled, nil, "")
	case err != nil:
		s.fail(j, err)
	default:
		s.finish(j, StateDone, &Result{Steps: step, MachineTime: machineTime, Bodies: set.Particles}, "")
	}
}

// openFrames opens (or continues) the job's frame chain for appending.
// A chain whose tail runs ahead of the resume point would break the
// index's step ordering, so it is recreated; so is a chain too corrupt
// to append to. Returns nil when frames cannot be recorded (no spool, or
// the chain cannot be created) — the job runs regardless.
func (s *Service) openFrames(j *Job, resumeStep int64) *frames.Writer {
	path := s.spool.FramesPath(j.ID)
	if path == "" {
		return nil
	}
	// The spec's keyframe cadence when set, else the service default.
	opt := frames.WriterOptions{KeyEvery: cmp.Or(j.Spec.FramesKeyEvery, s.opt.FramesKeyEvery)}
	if _, err := os.Stat(path); err == nil {
		w, err := frames.OpenAppend(path, opt)
		if err == nil {
			if last, ok := w.LastStep(); !ok || last <= resumeStep {
				return w
			}
			s.opt.Logf("nbodyd: job %s frame chain runs past resume step %d; restarting the chain", j.ID, resumeStep)
			w.Close()
		} else {
			s.opt.Logf("nbodyd: job %s frame chain unusable, recreating: %v", j.ID, err)
		}
	}
	w, err := frames.Create(path, opt)
	if err != nil {
		s.opt.Logf("nbodyd: creating frame chain for job %s: %v", j.ID, err)
		return nil
	}
	return w
}

// closeFrames closes the job's chain writer, if it has one.
func (s *Service) closeFrames(j *Job, fw *frames.Writer) {
	if fw == nil {
		return
	}
	if err := fw.Close(); err != nil {
		s.opt.Logf("nbodyd: closing frame chain for job %s: %v", j.ID, err)
	}
}

// appendFrame writes one frame to the job's chain, replicates keyframes
// through the frame hook, and compacts the chain when a keyframe pushes
// it past the byte budget. It reports false — after closing the writer —
// when the chain failed and capture should stop for this run; the chain
// then ends at its last intact frame, from which an interrupted job
// resumes.
func (s *Service) appendFrame(j *Job, fw *frames.Writer, f *frames.Frame) bool {
	isKey, err := fw.Append(f)
	if err != nil {
		s.opt.Logf("nbodyd: job %s frame append failed; disabling frame capture: %v", j.ID, err)
		fw.Close()
		return false
	}
	s.metrics.FramesAppended.Add(1)
	if !isKey {
		return true
	}
	s.notifyFrame(j.ID, f.Meta.Step, fw.KeyframeRecord())
	if budget := s.opt.FramesMaxBytes; budget > 0 && fw.Size() > budget {
		if _, err := fw.Compact(frames.Retention{MaxBytes: budget}); err != nil {
			s.opt.Logf("nbodyd: compacting frame chain for job %s: %v", j.ID, err)
			return true
		}
		s.metrics.FramesCompactions.Add(1)
	}
	return true
}

// stepDone books completed step step of either run path: it adds the
// step's simulated seconds to machineTime, appends the step's frame (the
// particles of framed, or the header alone when framed is nil), bumps
// the step metrics and publishes p with the step's measurements filled
// in. p brings what only the caller knows: SimTime in process, Retries
// on the cluster. It returns the frame writer to go on with (nil once
// the chain failed; the job itself keeps running) and the machine time.
func (s *Service) stepDone(j *Job, fw *frames.Writer, framed *barneshut.Simulation, step int, machineTime float64,
	res *barneshut.StepResult, p Progress) (*frames.Writer, float64) {
	machineTime += res.SimTime
	if fw != nil {
		var frame frames.Frame // lives for one append: the writer keeps its own copy
		if framed != nil {
			fillFrame(&frame, framed, step, machineTime)
		} else {
			headerFrame(&frame, step, machineTime, res)
		}
		if !s.appendFrame(j, fw, &frame) {
			fw = nil
		}
	}
	s.metrics.StepsTotal.Add(1)
	s.metrics.AddMachineTime(res.SimTime)
	s.metrics.ObserveStep(res.SimTime, res.Imbalance)
	p.Step, p.Steps, p.MachineTime = step, j.Spec.Steps, machineTime
	p.Efficiency, p.Imbalance, p.Phases, p.CommWords = res.Efficiency, res.Imbalance, res.Phases, res.CommWords
	p.Load = loadSnapshot(res.RankForce)
	j.publish(p)
	return fw, machineTime
}

// fillFrame makes f the job's state after step completed steps: clocks,
// the last step's simulated-machine measurements (none yet on a restored
// simulation that has not stepped) and the particle columns.
func fillFrame(f *frames.Frame, sim *barneshut.Simulation, step int, machineTime float64) {
	f.Meta = frames.Meta{
		Step:        int64(step),
		Time:        sim.Time(),
		MachineTime: machineTime,
		Energy:      sim.KineticEnergy(),
		Domain:      sim.Domain(),
	}
	if res := sim.LastResult(); res != nil {
		f.Meta.SimTime = res.SimTime
		f.Meta.Efficiency = res.Efficiency
		f.Meta.Imbalance = res.Imbalance
		f.Meta.CommWords = res.CommWords
		f.Meta.MACTests = res.Stats.MACTests
		f.Meta.PC = res.Stats.PC
		f.Meta.PP = res.Stats.PP
	}
	f.Parts.Gather(sim.BodiesView())
}

// headerFrame makes f a stateless job's frame after step completed steps:
// the step count, the machine time and the step's simulated-machine
// measurements, with no particle columns — the spec rebuilds the
// particles on resume.
func headerFrame(f *frames.Frame, step int, machineTime float64, res *barneshut.StepResult) {
	f.Meta = frames.Meta{
		Step:        int64(step),
		MachineTime: machineTime,
		SimTime:     res.SimTime,
		Efficiency:  res.Efficiency,
		Imbalance:   res.Imbalance,
		CommWords:   res.CommWords,
	}
}

// fail finalizes a job with an error.
func (s *Service) fail(j *Job, err error) {
	s.opt.Logf("nbodyd: job %s failed: %v", j.ID, err)
	s.finish(j, StateFailed, nil, err.Error())
}

// finish moves a running job to a terminal state, updates metrics,
// clears its spool entry, and wakes streamers. The spool entry goes
// first: once a client can observe the terminal state, the job is
// guaranteed not to resurrect on restart.
func (s *Service) finish(j *Job, state State, res *Result, errMsg string) {
	s.removeSpool(j.ID)
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = errMsg
	j.finished = s.opt.Clock.Now()
	j.mu.Unlock()
	s.metrics.JobsRunning.Add(-1)
	switch state {
	case StateDone:
		s.metrics.JobsDone.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	case StateCanceled:
		s.metrics.JobsCanceled.Add(1)
	}
	j.closeSubs()
}
