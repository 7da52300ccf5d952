package main

import (
	"math"
	"runtime"
	"sort"
)

// Clocks a metric can read. The two-clock rule: host wall-clock and the
// simulated CM5 clock are separate ledgers, and every metric says which
// one it reads. Counts and ratios of counts read neither.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

// metricDef declares one metric of the ledger.
type metricDef struct {
	name   string
	unit   string
	clock  string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which the metric
	// may worsen before that is a regression (end-to-end metrics only).
	// Sized from the spread ten seeds show on the shared reference box
	// and capped at 0.25, the most BENCHMARK.json may state.
	bound float64
	gated bool // see endToEnd
	// pooled metrics are a quantile of samples pooled over rounds; the
	// rest are the median of one value per round.
	pooled   bool
	quantile float64
}

// End-to-end metrics. A step workload is one job of N timed steps and a
// fleet job is stepsPerFleetJob steps, so the step and job families are
// defined on every workload; README.md marks which pairings carry
// information of their own.
//
// gated marks the ones BENCHMARK.json lists under end_to_end, where the
// driver rejects a change on them. On the shared reference box ten runs
// of a host-clock metric spread by 0.13–0.32 of their median (README.md,
// "Noise"), wider than the largest bound BENCHMARK.json may state, so a
// gate on them would reject noise; they are measured and printed by
// every run, BENCHMARK.json lists them under per_layer, and -compare
// judges them between paired sets. What is gated is what repeats: the
// simulated clock (the paper's own result), memory, and set-up time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", clock: clockHost, better: "lower", bound: 0.25, gated: true},
	{name: "steps_per_s", unit: "1/s", clock: clockHost, better: "higher", bound: 0.25},
	{name: "step_s_p50", unit: "s", clock: clockHost, better: "lower", bound: 0.25, pooled: true, quantile: 0.5},
	{name: "cpu_s_per_step", unit: "s", clock: clockHost, better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", clock: clockHost, better: "higher", bound: 0.25},
	{name: "job_latency_s_p50", unit: "s", clock: clockHost, better: "lower", bound: 0.25, pooled: true, quantile: 0.5},
	{name: "job_latency_s_p90", unit: "s", clock: clockHost, better: "lower", bound: 0.25, pooled: true, quantile: 0.9},
	{name: "cpu_s_per_job", unit: "s", clock: clockHost, better: "lower", bound: 0.25},
	{name: "sim_step_s", unit: "s", clock: clockSim, better: "lower", bound: 0.25, gated: true},
	{name: "sim_imbalance", unit: "ratio", clock: clockSim, better: "lower", bound: 0.25, gated: true},
	{name: "replay_frames_per_s", unit: "1/s", clock: clockHost, better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", clock: clockHost, better: "lower", bound: 0.25, gated: true},
	{name: "ops_failed_frac", unit: "ratio", clock: clockCount, better: "lower", bound: 0},
}

// contractEndToEnd is BENCHMARK.json's end_to_end list: the gated
// metrics, each defined and non-zero on every workload.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.gated {
			out = append(out, m)
		}
	}
	return out
}

// contractPerLayer is BENCHMARK.json's per_layer list: the per-layer
// metrics and the ungated end-to-end ones. ops_failed_frac is neither:
// the driver reads failed ÷ attempted off the summary line.
func contractPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		if !m.gated && m.name != "ops_failed_frac" {
			out = append(out, m)
		}
	}
	return out
}

// simJitterBound is the -compare bound of simulated-clock metrics on
// function-shipping workloads: per-rank waiting time depends on host
// scheduling of the polling loop (≈2 % observed; see internal/parbh).
const simJitterBound = 0.03

// boundFor is the -compare bound of one (metric, workload) pairing.
// -compare judges two sets of the same seed, where the simulated clock
// is bit-reproducible unless function shipping jitters it; the table's
// bound for those metrics covers the spread across seeds instead.
func boundFor(m metricDef, w *workload) float64 {
	switch {
	case m.clock != clockSim:
		return m.bound
	case w.simJitter:
		return simJitterBound
	}
	return 0
}

// Per-layer metrics, prefixed by module. They carry no bound: they say
// where an end-to-end move came from ("better" only says which way is
// less work or more use). A layer that does nothing on a workload reads
// 0 there.
var perLayer = []metricDef{
	// tree — serial_g50k composes the step itself when traced, so the
	// *_s_per_step rows there are span times; counts come from
	// tree.Stats / tree.BuildReport on every workload that has them.
	{name: "tree.build_s_per_step", unit: "s", clock: clockHost, better: "lower"},
	{name: "tree.flatten_s_per_step", unit: "s", clock: clockHost, better: "lower"},
	{name: "tree.force_s_per_step", unit: "s", clock: clockHost, better: "lower"},
	{name: "tree.minteractions_per_s", unit: "M/s", clock: clockHost, better: "higher"},
	{name: "tree.mac_tests_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "tree.pc_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "tree.pp_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "tree.leaves_refreshed_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "tree.nodes_rebuilt_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "tree.force_rel_err_rms", unit: "ratio", clock: clockCount, better: "lower"},
	{name: "keys.sort_s_per_step", unit: "s", clock: clockHost, better: "lower"},
	{name: "keys.displaced_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "integrate.self_s_per_step", unit: "s", clock: clockHost, better: "lower"},

	{name: "parbh.step_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "parbh.set_particles_s_per_step", unit: "s", clock: clockHost, better: "lower"},
	{name: "parbh.comm_words_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "parbh.comm_msgs_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "parbh.branch_nodes", unit: "count", clock: clockCount, better: "lower"},
	{name: "parbh.sim_efficiency", unit: "ratio", clock: clockSim, better: "higher"},
	{name: "parbh.sim_migrate_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_local_tree_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_tree_merge_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_broadcast_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_let_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_force_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "parbh.sim_loadbal_s", unit: "s", clock: clockSim, better: "lower"},
	{name: "msg.sim_comm_frac", unit: "ratio", clock: clockSim, better: "lower"},
	{name: "let.cache_hits_per_step", unit: "count", clock: clockCount, better: "higher"},

	{name: "transport.bytes_sent_per_step", unit: "B", clock: clockCount, better: "lower"},
	{name: "transport.frames_sent_per_step", unit: "count", clock: clockCount, better: "lower"},
	{name: "cluster.step_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},

	{name: "fabric.accept_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "fabric.route_s_mean", unit: "s", clock: clockHost, better: "lower"},
	{name: "fabric.journal_bytes_per_job", unit: "B", clock: clockCount, better: "lower"},
	{name: "fabric.cache_hit_ratio", unit: "ratio", clock: clockCount, better: "higher"},
	{name: "fabric.cache_hit_latency_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "fabric.rejected_429", unit: "count", clock: clockCount, better: "lower"},
	{name: "service.queue_wait_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "service.run_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "service.checkpoint_bytes_per_step", unit: "B", clock: clockCount, better: "lower"},
	{name: "service.frames_open_retries", unit: "count", clock: clockCount, better: "lower"},
	{name: "client.deliver_s_p50", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.5},
	{name: "client.job_latency_s_p99", unit: "s", clock: clockHost, better: "lower", pooled: true, quantile: 0.99},

	{name: "frames.append_s_per_frame", unit: "s", clock: clockHost, better: "lower"},
	{name: "frames.bytes_per_frame", unit: "B", clock: clockCount, better: "lower"},
	{name: "frames.delta_ratio", unit: "ratio", clock: clockCount, better: "lower"},
	{name: "frames.seek_s", unit: "s", clock: clockHost, better: "lower"},
	{name: "frames.tail_bytes_streamed", unit: "B", clock: clockCount, better: "lower"},
	{name: "checkpoint.write_s", unit: "s", clock: clockHost, better: "lower"},
	{name: "checkpoint.bytes", unit: "B", clock: clockCount, better: "lower"},

	{name: "host.loadavg_1m", unit: "load", clock: clockHost, better: "lower"},
	{name: "host.nproc", unit: "count", clock: clockCount, better: "higher"},
	{name: "host.gomaxprocs", unit: "count", clock: clockCount, better: "higher"},
	{name: "trace_overhead_frac", unit: "ratio", clock: clockHost, better: "lower"},
}

// roundResult is what one child process reports for one workload-round.
type roundResult struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Units     int    `json:"units"` // timed steps or jobs
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Scalars holds one value per metric for this round; Samples holds
	// per-step or per-job values that are pooled over rounds.
	Scalars map[string]float64   `json:"scalars"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Checks maps a correctness check to "" (passed) or what went wrong.
	Checks map[string]string `json:"checks"`
	// CRCs are state fingerprints the parent compares across rounds and
	// across the two DPDA workloads.
	CRCs map[string]uint32 `json:"crcs,omitempty"`
}

// newRoundResult opens a round's record with the host's state at the
// round's start, which the noise protocol keeps beside every number.
func newRoundResult(name string, traced bool) *roundResult {
	return &roundResult{
		Workload: name,
		Traced:   traced,
		Scalars: map[string]float64{
			"host.loadavg_1m": loadavg1m(),
			"host.nproc":      float64(runtime.NumCPU()),
			"host.gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		},
		Samples: map[string][]float64{},
		Checks:  map[string]string{},
		CRCs:    map[string]uint32{},
	}
}

// check records one correctness check; a failure also counts one failed
// operation so it lands in ops_failed_frac.
func (r *roundResult) check(name string, ok bool, detail string) {
	if ok {
		if _, seen := r.Checks[name]; !seen {
			r.Checks[name] = ""
		}
		return
	}
	r.Checks[name] = detail
	r.Failed++
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (vs need not be sorted; it is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// metricValue is one aggregated (metric, workload) cell of result.json.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	Better string    `json:"better,omitempty"`
	Bound  *float64  `json:"bound,omitempty"`
	N      int       `json:"n"`      // samples behind Value
	Rounds []float64 `json:"rounds"` // the metric computed per round
}

// aggregate folds the rounds of one workload into one cell per metric.
// Scalar metrics take the median of the rounds; pooled metrics take
// their quantile over all rounds' samples (and the per-round quantile
// in Rounds, which is what -compare reads the spread from).
func aggregate(defs []metricDef, rounds []*roundResult) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range defs {
		mv := metricValue{Unit: m.unit, Clock: m.clock, Better: m.better}
		if m.pooled {
			var pool []float64
			for _, r := range rounds {
				if s := r.Samples[m.name]; len(s) > 0 {
					pool = append(pool, s...)
					mv.Rounds = append(mv.Rounds, quantile(s, m.quantile))
				}
			}
			mv.Value, mv.N = quantile(pool, m.quantile), len(pool)
		} else {
			for _, r := range rounds {
				if v, ok := r.Scalars[m.name]; ok {
					mv.Rounds = append(mv.Rounds, v)
				}
			}
			mv.Value, mv.N = median(mv.Rounds), len(mv.Rounds)
		}
		if mv.N > 0 {
			out[m.name] = mv
		}
	}
	return out
}
