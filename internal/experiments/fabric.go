package experiments

import "fmt"

// FabricReport is the BENCH_fabric.json document the nbodyload driver
// emits after exercising a gateway fleet: admission, routing, fault
// re-routing, cache effectiveness, and the golden gateway-vs-direct
// determinism check.
//
// All timing fields are host seconds — fleet plumbing must never touch
// the simulated clock, which is exactly what GoldenMatch proves: a job
// routed through gateway, lease, shard, and result cache returns the
// same result (steps, integrator time, kinetic energy, every particle
// and the simulated machine time, bit-exact) a direct in-process run
// produces.
type FabricReport struct {
	Gateway     string  `json:"gateway"`
	Shards      int     `json:"shards"`
	Tenants     int     `json:"tenants"`
	Concurrency int     `json:"concurrency"`
	UniqueSpecs int     `json:"unique_specs"`
	ElapsedSecs float64 `json:"elapsed_seconds"`

	// Admission and completion accounting. Lost counts jobs that were
	// accepted (202) but never reached a terminal "done"/"canceled"
	// state — the number the shard-kill drill requires to be zero.
	Submitted   int `json:"submitted"`
	Accepted    int `json:"accepted"`
	Rejected429 int `json:"rejected_429"`
	Retried429  int `json:"retried_429"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Lost        int `json:"lost"`

	// Gateway-side counters scraped from /metrics after the run.
	CacheHits   int64  `json:"cache_hits"`
	Coalesced   int64  `json:"coalesced"`
	Rerouted    int64  `json:"rerouted"`
	KilledShard string `json:"killed_shard,omitempty"`

	// GoldenMatch is the determinism verdict: gateway-routed result
	// bytes equal to the direct in-process computation. GoldenCached is
	// the same check against a second submission served from the result
	// cache.
	GoldenMatch  bool `json:"golden_match"`
	GoldenCached bool `json:"golden_cached"`
}

// Throughput returns completed jobs per host second.
func (r FabricReport) Throughput() float64 {
	if r.ElapsedSecs <= 0 {
		return 0
	}
	return float64(r.Done) / r.ElapsedSecs
}

// FabricTable renders the report in the repo's experiment-table format
// so text output and CI logs stay uniform with the paper tables.
func FabricTable(r FabricReport) Table {
	row := func(k, v string) []string { return []string{k, v} }
	return Table{
		ID:      "fabric",
		Title:   fmt.Sprintf("Fleet fabric drill: %d shard(s), %d tenant(s)", r.Shards, r.Tenants),
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			row("submitted", fmt.Sprintf("%d", r.Submitted)),
			row("accepted", fmt.Sprintf("%d", r.Accepted)),
			row("rejected (429)", fmt.Sprintf("%d", r.Rejected429)),
			row("429 retries", fmt.Sprintf("%d", r.Retried429)),
			row("done", fmt.Sprintf("%d", r.Done)),
			row("failed", fmt.Sprintf("%d", r.Failed)),
			row("lost", fmt.Sprintf("%d", r.Lost)),
			row("cache hits", fmt.Sprintf("%d", r.CacheHits)),
			row("coalesced", fmt.Sprintf("%d", r.Coalesced)),
			row("rerouted", fmt.Sprintf("%d", r.Rerouted)),
			row("throughput (jobs/s)", f2(r.Throughput())),
			row("golden match", fmt.Sprintf("%v", r.GoldenMatch)),
			row("golden cached", fmt.Sprintf("%v", r.GoldenCached)),
		},
		Notes: []string{
			"Host-clock metrics only; simulated physics and the simulated clock are bit-identical by construction (the golden rows check it).",
		},
	}
}
