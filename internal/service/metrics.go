package service

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/transport"
)

// ExpositionContentType is the Prometheus text exposition content type
// served on /metrics. Version 0.0.4 is the plain-text format every
// Prometheus scraper understands.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metrics aggregates service counters and gauges. All fields are atomic
// so workers update them without coordination; the /metrics endpoint
// renders them in Prometheus text exposition format under the
// nbodyd_ prefix.
type Metrics struct {
	start time.Time
	clock Clock

	JobsSubmitted  atomic.Int64 // accepted submissions
	JobsRejected   atomic.Int64 // 429s at the queue
	JobsInvalid    atomic.Int64 // 400s at validation
	JobsResumed    atomic.Int64 // jobs recovered from the spool
	JobsDone       atomic.Int64
	JobsFailed     atomic.Int64
	JobsCanceled   atomic.Int64
	JobsQueued     atomic.Int64 // gauge
	JobsRunning    atomic.Int64 // gauge
	JobsRetried    atomic.Int64 // fault-recovery re-queues
	Workers        atomic.Int64 // gauge (pool size)
	StepsTotal     atomic.Int64
	Checkpoints    atomic.Int64 // resume.nbf writes; a frame chain is not counted
	CheckpointByte atomic.Int64 // resume.nbf bytes
	machineMicros  atomic.Int64 // simulated machine time, microseconds

	// Frame-store counters: frames appended to chains, in-place chain
	// compactions, and jobs admitted from a replicated keyframe seed.
	FramesAppended    atomic.Int64
	FramesCompactions atomic.Int64
	FramesSeeded      atomic.Int64

	// Parked-result counters (fabric agent): terminal results spooled
	// because the gateway was unreachable, and spooled results later
	// drained to a reconnected gateway. Parked − Drained is the backlog
	// still awaiting delivery.
	ResultsParked atomic.Int64
	ParkedDrained atomic.Int64

	// framesBytesFn, when set, reports the total bytes of all frame
	// chains in the spool; consulted at render time so the gauge tracks
	// compaction and pruning exactly.
	framesBytesFn atomic.Pointer[func() int64]

	// StepSimSeconds and StepImbalance are per-step distributions of the
	// simulated machine time and the load-imbalance ratio across all jobs.
	// Both observe simulated-clock quantities; host time never enters
	// these histograms.
	StepSimSeconds *obsv.Histogram
	StepImbalance  *obsv.Histogram

	// recoveries counts fault recoveries by transport.FaultKind.
	recoveries [transport.FaultClosed + 1]atomic.Int64

	// transportFn, when set, yields the cluster transport's counters for
	// the exposition (host-clock only; the simulated cost model never
	// sees them). It is a getter, not a pointer: the supervisor rebuilds
	// the transport after a fault, so the live Metrics changes identity
	// across machine generations.
	transportFn atomic.Pointer[func() *transport.Metrics]
}

func newMetrics(clock Clock) *Metrics {
	return &Metrics{
		start: clock.Now(),
		clock: clock,
		StepSimSeconds: obsv.NewHistogram("nbodyd_step_sim_seconds",
			"Simulated machine seconds per completed step.",
			obsv.ExpBuckets(0.001, 10, 7)),
		StepImbalance: obsv.NewHistogram("nbodyd_step_imbalance_ratio",
			"Per-step load imbalance (max over mean rank work).",
			[]float64{1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}),
	}
}

// ObserveStep records one completed step's simulated-clock measurements.
func (m *Metrics) ObserveStep(simSeconds, imbalance float64) {
	if m.StepSimSeconds != nil {
		m.StepSimSeconds.Observe(simSeconds)
	}
	if m.StepImbalance != nil && imbalance > 0 {
		m.StepImbalance.Observe(imbalance)
	}
}

// AddMachineTime accumulates simulated machine seconds.
func (m *Metrics) AddMachineTime(sec float64) {
	m.machineMicros.Add(int64(sec * 1e6))
}

// SetTransportFunc attaches a getter for the live cluster transport's
// counters; it is consulted at render time so rebuilt generations are
// always the ones exposed. The getter may return nil (no live
// generation).
func (m *Metrics) SetTransportFunc(fn func() *transport.Metrics) { m.transportFn.Store(&fn) }

// SetFramesBytesFunc attaches the spool's frame-chain size accounting
// to the nbodyd_frames_bytes gauge.
func (m *Metrics) SetFramesBytesFunc(fn func() int64) { m.framesBytesFn.Store(&fn) }

// RecordRecovery counts one fault recovery by kind.
func (m *Metrics) RecordRecovery(kind transport.FaultKind) {
	if kind < 0 || int(kind) >= len(m.recoveries) {
		kind = transport.FaultNone
	}
	m.recoveries[kind].Add(1)
}

// Render writes the exposition text. Lines are sorted by metric name so
// the output is diff-stable.
func (m *Metrics) Render() string {
	uptime := m.clock.Now().Sub(m.start).Seconds()
	stepsPerSec := 0.0
	if uptime > 0 {
		stepsPerSec = float64(m.StepsTotal.Load()) / uptime
	}
	rows := map[string]string{
		"nbodyd_jobs_submitted_total":     fmt.Sprintf("%d", m.JobsSubmitted.Load()),
		"nbodyd_jobs_rejected_total":      fmt.Sprintf("%d", m.JobsRejected.Load()),
		"nbodyd_jobs_invalid_total":       fmt.Sprintf("%d", m.JobsInvalid.Load()),
		"nbodyd_jobs_resumed_total":       fmt.Sprintf("%d", m.JobsResumed.Load()),
		"nbodyd_jobs_done_total":          fmt.Sprintf("%d", m.JobsDone.Load()),
		"nbodyd_jobs_failed_total":        fmt.Sprintf("%d", m.JobsFailed.Load()),
		"nbodyd_jobs_canceled_total":      fmt.Sprintf("%d", m.JobsCanceled.Load()),
		"nbodyd_jobs_queued":              fmt.Sprintf("%d", m.JobsQueued.Load()),
		"nbodyd_jobs_running":             fmt.Sprintf("%d", m.JobsRunning.Load()),
		"nbodyd_workers":                  fmt.Sprintf("%d", m.Workers.Load()),
		"nbodyd_worker_utilization":       fmt.Sprintf("%.4f", m.utilization()),
		"nbodyd_steps_total":              fmt.Sprintf("%d", m.StepsTotal.Load()),
		"nbodyd_steps_per_second":         fmt.Sprintf("%.4f", stepsPerSec),
		"nbodyd_checkpoints_total":        fmt.Sprintf("%d", m.Checkpoints.Load()),
		"nbodyd_checkpoint_bytes_total":   fmt.Sprintf("%d", m.CheckpointByte.Load()),
		"nbodyd_machine_seconds_total":    fmt.Sprintf("%.6f", float64(m.machineMicros.Load())/1e6),
		"nbodyd_uptime_seconds":           fmt.Sprintf("%.3f", uptime),
		"nbodyd_jobs_retried_total":       fmt.Sprintf("%d", m.JobsRetried.Load()),
		"nbodyd_frames_appended_total":    fmt.Sprintf("%d", m.FramesAppended.Load()),
		"nbodyd_frames_compactions_total": fmt.Sprintf("%d", m.FramesCompactions.Load()),
		"nbodyd_frames_seeded_total":      fmt.Sprintf("%d", m.FramesSeeded.Load()),
		"nbodyd_results_parked_total":     fmt.Sprintf("%d", m.ResultsParked.Load()),
		"nbodyd_parked_drained_total":     fmt.Sprintf("%d", m.ParkedDrained.Load()),
	}
	if fn := m.framesBytesFn.Load(); fn != nil {
		rows["nbodyd_frames_bytes"] = fmt.Sprintf("%d", (*fn)())
	}
	for kind := transport.FaultPeerLost; kind <= transport.FaultClosed; kind++ {
		name := fmt.Sprintf("nbodyd_recoveries_%s_total", kind)
		rows[name] = fmt.Sprintf("%d", m.recoveries[kind].Load())
	}
	var t *transport.Metrics
	if fn := m.transportFn.Load(); fn != nil {
		t = (*fn)()
	}
	if t != nil {
		snap := t.Snapshot()
		rows["nbodyd_transport_frames_sent_total"] = fmt.Sprintf("%d", snap.FramesSent)
		rows["nbodyd_transport_frames_recv_total"] = fmt.Sprintf("%d", snap.FramesRecv)
		rows["nbodyd_transport_bytes_sent_total"] = fmt.Sprintf("%d", snap.BytesSent)
		rows["nbodyd_transport_bytes_recv_total"] = fmt.Sprintf("%d", snap.BytesRecv)
		rows["nbodyd_transport_dials_total"] = fmt.Sprintf("%d", snap.Dials)
		rows["nbodyd_transport_dial_retries_total"] = fmt.Sprintf("%d", snap.DialRetries)
		rows["nbodyd_transport_dial_failures_total"] = fmt.Sprintf("%d", snap.DialFailures)
		rows["nbodyd_transport_heartbeats_total"] = fmt.Sprintf("%d", snap.Heartbeats)
		rows["nbodyd_transport_conns_open"] = fmt.Sprintf("%d", snap.ConnsOpen)
		rows["nbodyd_transport_rtt_p50_seconds"] = fmt.Sprintf("%.6g", snap.RTTp50)
		rows["nbodyd_transport_rtt_p99_seconds"] = fmt.Sprintf("%.6g", snap.RTTp99)
		rows["nbodyd_transport_faults_dropped_total"] = fmt.Sprintf("%d", snap.FaultsDropped)
		rows["nbodyd_transport_faults_duplicated_total"] = fmt.Sprintf("%d", snap.FaultsDuplicated)
		rows["nbodyd_transport_faults_delayed_total"] = fmt.Sprintf("%d", snap.FaultsDelayed)
		rows["nbodyd_transport_faults_corrupted_total"] = fmt.Sprintf("%d", snap.FaultsCorrupted)
		rows["nbodyd_transport_faults_deduped_total"] = fmt.Sprintf("%d", snap.FaultsDeduped)
		rows["nbodyd_transport_faults_partitions_total"] = fmt.Sprintf("%d", snap.FaultsPartitions)
	}
	var b strings.Builder
	obsv.RenderRows(&b, rows)
	if m.StepSimSeconds != nil {
		m.StepSimSeconds.Render(&b)
	}
	if m.StepImbalance != nil {
		m.StepImbalance.Render(&b)
	}
	return b.String()
}

// utilization is busy workers over pool size.
func (m *Metrics) utilization() float64 {
	w := m.Workers.Load()
	if w == 0 {
		return 0
	}
	return float64(m.JobsRunning.Load()) / float64(w)
}
