package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec mirrors ../BENCHMARK.json.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// smokeRound runs one workload-round in this process at a tiny scale.
func smokeRound(t *testing.T, w *workload, traced bool) *roundResult {
	t.Helper()
	e := &env{
		w: w, seed: 7, n: min(w.n, 256), units: 2, crcStep: w.warmup + 2, check: true,
		dir: t.TempDir(), start: time.Now(), res: newRoundResult(w.name, traced),
	}
	if w.unit == "job" {
		e.units = 6
	}
	if traced {
		e.trace = newSpans()
	}
	if err := w.run(e); err != nil {
		t.Fatalf("%s (traced=%t): %v", w.name, traced, err)
	}
	return e.res
}

// TestSmoke runs every workload untraced and traced at n <= 256 with 2
// steps or 6 jobs, and holds the program to BENCHMARK.json: every
// end-to-end metric it names is emitted, and non-zero, by every workload
// it lists; every per-layer metric it names is emitted by some workload;
// the two metric tables and the file agree; every check passes.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	reports := map[string]*workloadReport{}
	first := map[string]*roundResult{}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", sw.Name)
		}
		if !name.MatchString(sw.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", sw.Name)
		}
		rs := []*roundResult{smokeRound(t, w, false), smokeRound(t, w, true)}
		first[w.name] = rs[0]
		reports[w.name] = summarize(w, rs, rs[0].Units)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if fn, let := first["dpda_func_p16"], first["dpda_let_p16"]; fn != nil && let != nil {
		crossCheck(fn, let)
		reports["dpda_func_p16"].Checks["func_let_state_crc_equal"] = fn.Checks["func_let_state_crc_equal"]
	}
	for wname, wr := range reports {
		for check, detail := range wr.Checks {
			if detail != "" {
				t.Errorf("%s: check %s failed: %s", wname, check, detail)
			}
		}
	}

	want := map[string]metricDef{}
	for _, m := range contractEndToEnd() {
		want[m.name] = m
	}
	for _, sm := range spec.EndToEnd {
		m, ok := want[sm.Name]
		if !ok {
			t.Errorf("BENCHMARK.json end_to_end %q is not an end-to-end metric of the benchmark", sm.Name)
			continue
		}
		delete(want, sm.Name)
		if !name.MatchString(sm.Name) || sm.Unit != m.unit || sm.Better != m.better || sm.Bound == nil || *sm.Bound != m.bound || m.bound > 0.25 {
			t.Errorf("BENCHMARK.json end_to_end %+v disagrees with the benchmark's %+v", sm, m)
		}
		for wname, wr := range reports {
			if mv, ok := wr.EndToEnd[sm.Name]; !ok || mv.Value == 0 {
				t.Errorf("%s does not emit a non-zero %s (got %+v)", wname, sm.Name, mv)
			}
		}
	}
	for missing := range want {
		t.Errorf("BENCHMARK.json end_to_end lacks %q", missing)
	}

	want = map[string]metricDef{}
	for _, m := range contractPerLayer() {
		want[m.name] = m
	}
	for _, sm := range spec.PerLayer {
		m, ok := want[sm.Name]
		if !ok {
			t.Errorf("BENCHMARK.json per_layer %q is not a per-layer metric of the benchmark", sm.Name)
			continue
		}
		delete(want, sm.Name)
		if !name.MatchString(sm.Name) || sm.Unit != m.unit || sm.Better != m.better || sm.Bound != nil {
			t.Errorf("BENCHMARK.json per_layer %+v disagrees with the benchmark's %+v", sm, m)
		}
		emitted := false
		for _, wr := range reports {
			_, inLayers := wr.PerLayer[sm.Name]
			_, inEndToEnd := wr.EndToEnd[sm.Name]
			emitted = emitted || inLayers || inEndToEnd
		}
		if !emitted {
			t.Errorf("no workload emits per-layer metric %s", sm.Name)
		}
	}
	for missing := range want {
		t.Errorf("BENCHMARK.json per_layer lacks %q", missing)
	}
}

// TestCompareVerdict pins the three verdicts of -compare.
func TestCompareVerdict(t *testing.T) {
	cell := func(better string, bound float64, rounds ...float64) metricValue {
		return metricValue{Value: median(rounds), Better: better, Bound: &bound, Rounds: rounds}
	}
	for _, tc := range []struct {
		name string
		a, b metricValue
		want string
	}{
		{"same", cell("lower", 0.10, 1.00, 1.01, 1.02), cell("lower", 0.10, 1.00, 1.02, 1.03), verdictOK},
		{"slower beyond bound", cell("lower", 0.10, 1.00, 1.01, 1.02), cell("lower", 0.10, 1.20, 1.21, 1.22), verdictWorse},
		{"rate dropped beyond bound", cell("higher", 0.10, 10, 10.1, 10.2), cell("higher", 0.10, 8, 8.1, 8.2), verdictWorse},
		{"faster is never worse", cell("lower", 0.10, 1.00, 1.01, 1.02), cell("lower", 0.10, 0.5, 0.51, 0.52), verdictOK},
		{"noisy and overlapping", cell("lower", 0.10, 1.0, 1.2, 1.4), cell("lower", 0.10, 1.1, 1.35, 1.5), verdictUnresolved},
		{"noisy but separated", cell("lower", 0.10, 1.0, 1.2, 1.4), cell("lower", 0.10, 2.0, 2.2, 2.4), verdictWorse},
		{"bit-equal bound holds", cell("lower", 0, 6.25, 6.25, 6.25), cell("lower", 0, 6.25, 6.25, 6.25), verdictOK},
		{"bit-equal bound broken", cell("lower", 0, 6.25, 6.25, 6.25), cell("lower", 0, 6.2500001, 6.2500001, 6.2500001), verdictWorse},
	} {
		if got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
