package service

import (
	"os"
	"time"

	barneshut "repro"
	"repro/internal/cluster"
	"repro/internal/frames"
	"repro/internal/obsv"
	"repro/internal/transport"
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
// terminal state unless shutdown interrupts it, in which case its resume
// point is in the spool and the job is left for the next daemon.
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
	} else if step > 0 {
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

	// Open the job's frame chain. Every completed step is appended; the
	// columnar record is gathered from the same bodies the result reports,
	// so frame capture never perturbs a simulated metric. While
	// the chain is being written it is the job's checkpoint; a job without
	// one (frames off, potential mode, capture failed) checkpoints at the
	// CheckpointEvery cadence and at shutdown instead.
	var fw *frames.Writer
	if s.framesEnabled(spec) {
		fw = s.openFrames(j, int64(step))
	}
	defer func() {
		if fw != nil {
			if err := fw.Close(); err != nil {
				s.opt.Logf("nbodyd: closing frame chain for job %s: %v", j.ID, err)
			}
		}
	}()

	for step < spec.Steps {
		select {
		case <-s.stopping:
			// Graceful shutdown: leave a resume point and walk away
			// without a terminal transition — the job is still live, just
			// not in this process.
			if fw == nil {
				s.checkpoint(j, sim, step, machineTime)
			}
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
		machineTime += res.SimTime
		if fw != nil {
			var frame frames.Frame // lives for one append: the writer keeps its own copy
			fillFrame(&frame, sim, step, machineTime)
			if !s.appendFrame(j, fw, &frame) {
				fw = nil // chain unusable; the job itself keeps running
			}
		}
		s.metrics.StepsTotal.Add(1)
		s.metrics.AddMachineTime(res.SimTime)
		s.metrics.ObserveStep(res.SimTime, res.Imbalance)
		j.publish(Progress{
			Step:        step,
			Steps:       spec.Steps,
			SimTime:     sim.Time(),
			MachineTime: machineTime,
			Efficiency:  res.Efficiency,
			Imbalance:   res.Imbalance,
			Phases:      res.Phases,
			CommWords:   res.CommWords,
			Load:        loadSnapshot(res.RankForce),
		})
		if fw == nil && s.checkpointDue(spec, step) {
			s.checkpoint(j, sim, step, machineTime)
		}
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
// attached worker processes. Distributed jobs do not integrate, so the
// checkpoint is just a step index plus the machine-time accumulator —
// resume replays the earlier steps deterministically (and silently)
// and picks up reporting where the fault hit. A transport-class fault
// re-queues the job with capped exponential backoff instead of failing
// it, up to Options.MaxRetries times.
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
	from := j.resume.step
	machineTime := j.resume.machineTime
	retries := j.retries
	j.mu.Unlock()

	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	// The cluster supervisor is shared across jobs, so the tracer is
	// installed only while this job holds the cluster lock.
	if tr := jobTracer(j); tr != nil {
		s.opt.Cluster.SetTracer(tr)
		defer s.opt.Cluster.SetTracer(nil)
	}
	step := from
	stopped := false
	_, err = s.opt.Cluster.RunFrom(job, from, func(n int, res *barneshut.StepResult) bool {
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
		machineTime += res.SimTime
		s.metrics.StepsTotal.Add(1)
		s.metrics.AddMachineTime(res.SimTime)
		s.metrics.ObserveStep(res.SimTime, res.Imbalance)
		j.publish(Progress{
			Step:        step,
			Steps:       spec.Steps,
			MachineTime: machineTime,
			Efficiency:  res.Efficiency,
			Imbalance:   res.Imbalance,
			Phases:      res.Phases,
			CommWords:   res.CommWords,
			Load:        loadSnapshot(res.RankForce),
			Retries:     retries,
		})
		if s.checkpointDue(spec, step) {
			s.checkpoint(j, nil, step, machineTime)
		}
		return true
	})
	switch {
	case err != nil:
		if s.retryClusterJob(j, step, machineTime, err) {
			return
		}
		s.fail(j, err)
	case stopped:
		// Shutdown mid-job: persist the resume point without a terminal
		// transition; the spooled spec + meta re-queue the job at this
		// step in the next daemon.
		s.checkpoint(j, nil, step, machineTime)
		s.metrics.JobsRunning.Add(-1)
	case j.canceled():
		s.finish(j, StateCanceled, nil, "")
	default:
		s.finish(j, StateDone, &Result{Steps: step, MachineTime: machineTime, Bodies: set.Particles}, "")
	}
}

// retryClusterJob handles a cluster job's failure: when the cause is a
// transport-class fault and the retry budget allows, it persists the
// resume point, flips the job back to queued, announces the recovery on
// the progress stream, and re-admits the job after a capped exponential
// backoff. It reports whether the retry was scheduled; false means the
// caller should fail the job (non-retryable fault or budget exhausted).
func (s *Service) retryClusterJob(j *Job, step int, machineTime float64, cause error) bool {
	if !transport.Retryable(cause) {
		return false
	}
	j.mu.Lock()
	retries := j.retries
	j.mu.Unlock()
	if retries >= s.opt.MaxRetries {
		return false
	}
	fault := transport.FaultKindOf(cause)
	s.checkpoint(j, nil, step, machineTime)
	delay := s.retryBackoff.Delay(retries)
	j.mu.Lock()
	j.retries++
	retries = j.retries
	j.resume = resumePoint{step: step, machineTime: machineTime}
	j.state = StateQueued
	j.mu.Unlock()
	s.metrics.JobsRunning.Add(-1)
	s.metrics.JobsQueued.Add(1)
	s.metrics.JobsRetried.Add(1)
	s.metrics.RecordRecovery(fault)
	s.opt.Logf("nbodyd: job %s hit %s fault at step %d (retry %d/%d in %v): %v",
		j.ID, fault, step, retries, s.opt.MaxRetries, delay, cause)
	j.publish(Progress{
		Step:        step,
		Steps:       j.Spec.Steps,
		MachineTime: machineTime,
		Event:       "recovery",
		Fault:       fault.String(),
		Retries:     retries,
	})
	go func() {
		select {
		case <-time.After(delay):
		case <-s.stopping:
			// Shutdown while backing off: the checkpoint already written
			// re-queues the job in the next daemon.
			return
		}
		select {
		case s.queue <- j:
		case <-s.stopping:
		}
	}()
	return true
}

// openFrames opens (or continues) the job's frame chain for appending.
// A chain whose tail runs ahead of the resume point would break the
// index's step ordering, so it is recreated; so is a chain too corrupt
// to append to. Returns nil when frames cannot be recorded — the job
// runs regardless.
func (s *Service) openFrames(j *Job, resumeStep int64) *frames.Writer {
	path := s.spool.FramesPath(j.ID)
	if path == "" {
		return nil
	}
	opt := frames.WriterOptions{KeyEvery: s.frameKeyEvery(j.Spec)}
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

// appendFrame writes one frame to the job's chain, replicates keyframes
// through the frame hook, and compacts the chain when a keyframe pushes
// it past the byte budget. It reports false — after closing the writer —
// when the chain failed and capture should stop for this run.
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

// checkpoint persists the resume point of a job that is not writing a
// frame chain: one keyframe record (resume.nbf), without particles for a
// stateless job (sim is not read).
func (s *Service) checkpoint(j *Job, sim *barneshut.Simulation, step int, machineTime float64) {
	if s.spool == nil {
		return
	}
	f := frames.Frame{Meta: frames.Meta{Step: int64(step), MachineTime: machineTime}}
	if !j.Spec.stateless() {
		fillFrame(&f, sim, step, machineTime)
	}
	n, err := s.spool.PutResume(j.ID, &f)
	if err != nil {
		s.opt.Logf("nbodyd: checkpointing job %s: %v", j.ID, err)
		return
	}
	s.metrics.Checkpoints.Add(1)
	s.metrics.CheckpointByte.Add(int64(n))
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
