package fabric

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Metrics aggregates the gateway's counters, gauges, and histograms,
// rendered under the nbodygw_ prefix in the same Prometheus text
// exposition the shard daemons serve.
type Metrics struct {
	start time.Time

	JobsSubmitted atomic.Int64 // accepted at the gateway (cache hits included)
	JobsInvalid   atomic.Int64 // 400s at validation
	JobsRejected  atomic.Int64 // 429s (quota + backlog bound)
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCanceled  atomic.Int64
	CacheHits     atomic.Int64 // served from the result cache
	Coalesced     atomic.Int64 // attached to an identical in-flight job
	JobsPending   atomic.Int64 // gauge: admitted, awaiting a lease
	JobsLeased    atomic.Int64 // gauge: leased to a shard right now
	Shards        atomic.Int64 // gauge: registered shards

	// KeyframesReplicated counts frame-store keyframes shards streamed
	// back for leased jobs; JobsResumedFromFrame counts accepted
	// assignments a shard actually restored from such a keyframe (i.e.
	// re-routed jobs that skipped replaying from step zero).
	KeyframesReplicated  atomic.Int64
	JobsResumedFromFrame atomic.Int64

	// Crash-safety counters. JobsAdopted counts journaled leases a
	// reconnecting shard reported and the gateway re-bound in place
	// instead of re-routing; ParkedResults counts terminal results that
	// arrived via the parked-result drain rather than a live lease;
	// JournalBytes is the on-disk journal size; reconcileMicros is the
	// host time from gateway start until the reconciliation window
	// emptied (adoption, drain, or timeout re-queue of every journaled
	// lease), 0 while reconciliation is still open or was never needed.
	// ResultLogBytes is the on-disk result log size: terminal results
	// live there, not in the journal.
	JobsAdopted     atomic.Int64
	ParkedResults   atomic.Int64
	JournalBytes    atomic.Int64
	ResultLogBytes  atomic.Int64
	reconcileMicros atomic.Int64

	// Routed counts lease grants by shard name; Rerouted counts
	// re-queues of leased jobs by the TransportError fault kind that
	// killed their shard; Admitted/Rejected count per-tenant admission
	// decisions.
	Routed   *obsv.LabeledCounter
	Rerouted *obsv.LabeledCounter
	Admitted *obsv.LabeledCounter
	Rejected *obsv.LabeledCounter

	// RouteSeconds is the host-clock latency from gateway admission to
	// lease grant (queueing + routing, not simulation).
	RouteSeconds *obsv.Histogram
}

// NewMetrics builds the gateway metric set.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{
		start: now,
		Routed: obsv.NewLabeledCounter("nbodygw_jobs_routed_total",
			"Jobs leased to a shard, by shard name.", "shard"),
		Rerouted: obsv.NewLabeledCounter("nbodygw_jobs_rerouted_total",
			"Leased jobs re-queued after a shard fault, by fault kind.", "fault"),
		Admitted: obsv.NewLabeledCounter("nbodygw_tenant_admitted_total",
			"Submissions admitted past the tenant quota, by tenant.", "tenant"),
		Rejected: obsv.NewLabeledCounter("nbodygw_tenant_rejected_total",
			"Submissions rejected by the tenant quota or backlog bound, by tenant.", "tenant"),
		RouteSeconds: obsv.NewHistogram("nbodygw_route_seconds",
			"Host seconds from gateway admission to lease grant.",
			obsv.ExpBuckets(0.0001, 10, 8)),
	}
}

// SetReconcileSeconds records how long restart reconciliation took.
func (m *Metrics) SetReconcileSeconds(sec float64) {
	m.reconcileMicros.Store(int64(sec * 1e6))
}

// ReconcileSeconds reads the reconciliation duration gauge.
func (m *Metrics) ReconcileSeconds() float64 {
	return float64(m.reconcileMicros.Load()) / 1e6
}

// Render writes the exposition text: plain rows sorted by name, then
// the labeled families, then the histogram.
func (m *Metrics) Render(now time.Time) string {
	rows := map[string]string{
		"nbodygw_jobs_submitted_total":          fmt.Sprintf("%d", m.JobsSubmitted.Load()),
		"nbodygw_jobs_invalid_total":            fmt.Sprintf("%d", m.JobsInvalid.Load()),
		"nbodygw_jobs_rejected_total":           fmt.Sprintf("%d", m.JobsRejected.Load()),
		"nbodygw_jobs_done_total":               fmt.Sprintf("%d", m.JobsDone.Load()),
		"nbodygw_jobs_failed_total":             fmt.Sprintf("%d", m.JobsFailed.Load()),
		"nbodygw_jobs_canceled_total":           fmt.Sprintf("%d", m.JobsCanceled.Load()),
		"nbodygw_cache_hits_total":              fmt.Sprintf("%d", m.CacheHits.Load()),
		"nbodygw_jobs_coalesced_total":          fmt.Sprintf("%d", m.Coalesced.Load()),
		"nbodygw_jobs_pending":                  fmt.Sprintf("%d", m.JobsPending.Load()),
		"nbodygw_jobs_leased":                   fmt.Sprintf("%d", m.JobsLeased.Load()),
		"nbodygw_shards_connected":              fmt.Sprintf("%d", m.Shards.Load()),
		"nbodygw_uptime_seconds":                fmt.Sprintf("%.3f", now.Sub(m.start).Seconds()),
		"nbodygw_keyframes_replicated_total":    fmt.Sprintf("%d", m.KeyframesReplicated.Load()),
		"nbodygw_jobs_resumed_from_frame_total": fmt.Sprintf("%d", m.JobsResumedFromFrame.Load()),
		"nbodygw_jobs_adopted_total":            fmt.Sprintf("%d", m.JobsAdopted.Load()),
		"nbodygw_parked_results_total":          fmt.Sprintf("%d", m.ParkedResults.Load()),
		"nbodygw_journal_bytes":                 fmt.Sprintf("%d", m.JournalBytes.Load()),
		"nbodygw_result_log_bytes":              fmt.Sprintf("%d", m.ResultLogBytes.Load()),
		"nbodygw_reconcile_seconds":             fmt.Sprintf("%.6f", m.ReconcileSeconds()),
	}
	var b strings.Builder
	obsv.RenderRows(&b, rows)
	m.Routed.Render(&b)
	m.Rerouted.Render(&b)
	m.Admitted.Render(&b)
	m.Rejected.Render(&b)
	m.RouteSeconds.Render(&b)
	return b.String()
}
