package fabric

import (
	"testing"
	"time"

	"repro/internal/wiregolden"
)

// TestMetricsGoldenText renders a fixed counter state and compares it
// byte for byte with the text captured before the exposition writer moved
// to internal/obsv.
func TestMetricsGoldenText(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	m := NewMetrics(start)
	m.JobsSubmitted.Add(5)
	m.JobsDone.Add(3)
	m.CacheHits.Add(2)
	m.JobsPending.Add(1)
	m.Shards.Add(2)
	m.KeyframesReplicated.Add(4)
	m.JournalBytes.Store(8192)
	m.SetReconcileSeconds(0.25)
	m.Routed.Add("s2", 1)
	m.Routed.Add("s1", 3)
	m.Rerouted.Add("peer-lost", 1)
	m.Admitted.Add("alice", 4)
	m.RouteSeconds.Observe(0.005)
	m.RouteSeconds.Observe(0.2)
	wiregolden.File(t, "testdata/metrics.golden", []byte(m.Render(start.Add(90*time.Second))))
}
