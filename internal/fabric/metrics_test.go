package fabric

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// expositionLine matches one Prometheus text-format sample: a metric
// name, an optional single-label selector, and a numeric value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? (?:[-+]?[0-9.eE+-]+|NaN)$`)

func TestMetricsExpositionParses(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	m := NewMetrics(start)
	m.JobsSubmitted.Add(5)
	m.CacheHits.Add(2)
	m.Routed.Add("s1", 3)
	m.Routed.Add("s2", 1)
	m.Rerouted.Add("peer-lost", 1)
	m.Admitted.Add("alice", 4)
	m.Rejected.Add("bob", 2)
	m.RouteSeconds.Observe(0.005)

	text := m.Render(start.Add(90 * time.Second))
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line %d not valid exposition text: %q", i+1, line)
		}
	}
}

func TestMetricsExpositionContent(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	m := NewMetrics(start)
	m.CacheHits.Add(7)
	m.Routed.Add("shard-a", 11)
	m.Rejected.Add("tenant-x", 3)
	text := m.Render(start.Add(time.Second))

	for _, want := range []string{
		"nbodygw_cache_hits_total 7",
		`nbodygw_jobs_routed_total{shard="shard-a"} 11`,
		`nbodygw_tenant_rejected_total{tenant="tenant-x"} 3`,
		"nbodygw_uptime_seconds 1.000",
		"# TYPE nbodygw_jobs_routed_total counter",
		"# TYPE nbodygw_jobs_pending gauge",
		"# TYPE nbodygw_route_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\nfull text:\n%s", want, text)
		}
	}
}

// Empty label families still announce their schema so dashboards can be
// built before traffic arrives.
func TestMetricsEmptyFamiliesKeepHeaders(t *testing.T) {
	m := NewMetrics(time.Unix(0, 0))
	text := m.Render(time.Unix(1, 0))
	for _, want := range []string{
		"# TYPE nbodygw_jobs_rerouted_total counter",
		"# TYPE nbodygw_tenant_admitted_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q for an empty family", want)
		}
	}
}
