// Command benchmark is the repository's one performance ledger: six
// named workloads, end-to-end metrics with regression bounds, per-layer
// attribution, correctness checks and a traced run, described by
// BENCHMARK.json at the repository root. See README.md beside this file.
//
//	go run ./benchmark -seed 1994                 # the whole ledger
//	go run ./benchmark -workload serial_g50k      # one workload
//	go run ./benchmark -compare a.json b.json     # two result files
//
// It measures every layer from outside: it times calls into the layers'
// public functions and reads counters they already export.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is the origin of setup_s in a child process.
var processStart = time.Now()

// rounds is R: how many times each workload runs untraced, each in a
// fresh child process, interleaved with the other workloads.
const rounds = 3

// Values of -trace.
const (
	traceOff  = 0 // untraced rounds only: end-to-end metrics
	traceOn   = 1 // traced rounds beside one untraced reference: per-layer metrics
	traceBoth = 2 // the ledger: untraced rounds, then one traced round
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed     int64
	workload string
	seconds  float64
	trace    int
	out      string
	compare  bool

	// Child-process flags, set by the parent.
	child   string
	traced  bool
	check   bool
	crcStep int
	units   int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 1994, "dataset seed; the same seed gives the same inputs")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six)")
	fs.Float64Var(&o.seconds, "seconds", baseSeconds, "scales the fixed operation counts: timed seconds per workload on the reference box, summed over the rounds")
	fs.IntVar(&o.trace, "trace", traceBoth, "0: untraced rounds (end-to-end metrics); 1: traced rounds (per-layer metrics); 2: both")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json, traces and scratch spools")
	fs.BoolVar(&o.compare, "compare", false, "compare two result.json files given as arguments")
	fs.StringVar(&o.child, "child", "", "internal: run one workload-round in this process")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in the child")
	fs.BoolVar(&o.check, "check", false, "internal: run the slow reference checks in the child")
	fs.IntVar(&o.crcStep, "crc-step", 0, "internal: fingerprint the state after this many steps")
	fs.IntVar(&o.units, "units", 0, "internal: timed operations in the child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		var worse bool
		worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err == nil && worse {
			return 1
		}
	case o.child != "":
		err = runChild(o, stdout)
	default:
		var ok bool
		ok, err = runLedger(o, stdout, stderr)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild runs one workload-round in this process and prints its
// roundResult as one JSON line.
func runChild(o options, stdout io.Writer) error {
	w := workloadByName(o.child)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.child)
	}
	dir, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// An interrupted parent passes the signal on; leave no spool behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	e := &env{
		w: w, seed: o.seed, n: w.n, units: o.units, crcStep: o.crcStep, check: o.check,
		dir: dir, start: processStart, res: newRoundResult(w.name, o.traced),
	}
	if o.traced {
		e.trace = newSpans()
	}
	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if e.trace != nil {
		if err := e.trace.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(e.res)
}

// spawn runs one workload-round in a fresh child process, so peak RSS,
// GC state and CPU accounting are per workload-round.
func spawn(ctx context.Context, o options, w *workload, traced, check bool, units, crcStep int, stderr io.Writer) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", w.name, "-seed", fmt.Sprint(o.seed), "-units", fmt.Sprint(units),
		"-crc-step", fmt.Sprint(crcStep), "-out", o.out,
		fmt.Sprintf("-traced=%t", traced), fmt.Sprintf("-check=%t", check),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	var r roundResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child output: %w", w.name, err)
	}
	return &r, nil
}

// workloadReport is one workload's section of result.json.
type workloadReport struct {
	Why       string                 `json:"why"`
	N         int                    `json:"n"`
	Warmup    int                    `json:"warmup"`
	Units     int                    `json:"units_per_round"`
	Unit      string                 `json:"unit"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    map[string]string      `json:"checks"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// report is result.json.
type report struct {
	GoVersion  string                     `json:"go_version"`
	Commit     string                     `json:"commit"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Rounds     int                        `json:"rounds"`
	Trace      int                        `json:"trace"`
	NProc      int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// runLedger runs the selected workloads in interleaved rounds, prints
// every metric by name with unit, clock and sample count, checks
// correctness and writes result.json; a single-workload run ends with
// the one-line JSON summary BENCHMARK.json's driver reads. It reports
// whether every correctness check passed.
func runLedger(o options, stdout, stderr io.Writer) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	if o.seconds <= 0 || o.trace < traceOff || o.trace > traceBoth {
		return false, fmt.Errorf("need -seconds > 0 and -trace in 0..2")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	// An interrupt stops the running child, which removes its spools.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	plan := make([]bool, rounds) // one entry per round: traced?
	switch o.trace {
	case traceOn:
		for r := range plan {
			plan[r] = r != rounds/2 // one untraced reference in the middle
		}
	case traceBoth:
		plan = append(plan, true)
	}

	// The func↔let check fingerprints both DPDA runs at the last step the
	// two have in common.
	fn, let := workloadByName("dpda_func_p16"), workloadByName("dpda_let_p16")
	crcStep := fn.warmup + min(unitsFor(fn, o.seconds), unitsFor(let, o.seconds))

	results := map[string][]*roundResult{}
	checked := map[string]bool{}
	for r, traced := range plan {
		for _, w := range selected {
			// The slow reference checks run once, in the first untraced round.
			check := !traced && !checked[w.name]
			checked[w.name] = checked[w.name] || check
			fmt.Fprintf(stderr, "round %d/%d %-20s traced=%-5t loadavg_1m=%.2f\n", r+1, len(plan), w.name, traced, loadavg1m())
			res, err := spawn(ctx, o, w, traced, check, unitsFor(w, o.seconds), crcStep, stderr)
			if err != nil {
				return false, err
			}
			results[w.name] = append(results[w.name], res)
		}
	}
	// One DPDA workload alone still gets its cross-strategy check: run
	// the sibling just far enough to fingerprint the common step.
	for _, pair := range [][2]*workload{{fn, let}, {let, fn}} {
		w, sib := pair[0], pair[1]
		if len(results[w.name]) > 0 && len(results[sib.name]) == 0 {
			fmt.Fprintf(stderr, "reference     %-20s to step %d\n", sib.name, crcStep)
			ref, err := spawn(ctx, o, sib, false, false, crcStep-sib.warmup, crcStep, stderr)
			if err != nil {
				return false, err
			}
			crossCheck(results[w.name][0], ref)
		}
	}
	if len(results[fn.name]) > 0 && len(results[let.name]) > 0 {
		crossCheck(results[fn.name][0], results[let.name][0])
	}

	rep := &report{
		GoVersion: runtime.Version(), Commit: commit(), Seed: o.seed, Seconds: o.seconds,
		Rounds: rounds, Trace: o.trace, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadReport{},
	}
	for _, w := range selected {
		rep.Workloads[w.name] = summarize(w, results[w.name], unitsFor(w, o.seconds))
	}
	printReport(stdout, rep, selected)
	if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
		return false, err
	}
	ok := true
	for _, wr := range rep.Workloads {
		ok = ok && wr.Failed == 0
	}
	if len(selected) == 1 {
		if err := printSummaryLine(stdout, rep.Workloads[selected[0].name], o.trace); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// crossCheck compares the state fingerprints of the two DPDA strategies
// at their common step: LET shipping is bit-identical to function
// shipping. The verdict is charged to a.
func crossCheck(a, b *roundResult) {
	ca, cb := a.CRCs["at_crc_step"], b.CRCs["at_crc_step"]
	a.check("func_let_state_crc_equal", ca == cb && ca != 0,
		fmt.Sprintf("%s state CRC %08x, %s %08x", a.Workload, ca, b.Workload, cb))
}

// summarize folds one workload's rounds into its report section.
func summarize(w *workload, rs []*roundResult, units int) *workloadReport {
	wr := &workloadReport{
		Why: w.why, N: w.n, Warmup: w.warmup, Units: units, Unit: w.unit, Checks: map[string]string{},
	}
	var untraced, traced []*roundResult
	for _, r := range rs {
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	// Every round of a deterministic workload ends in the same state,
	// traced or not: the traced composition equals the untraced program.
	for _, r := range rs[1:] {
		if _, ok := rs[0].CRCs["final"]; !ok {
			break // the fleet's rounds are checked job by job instead
		}
		rs[0].check("rounds_end_bit_identical", r.CRCs["final"] == rs[0].CRCs["final"],
			fmt.Sprintf("final state CRC %08x in one round, %08x in another", rs[0].CRCs["final"], r.CRCs["final"]))
	}
	for _, r := range rs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for name, detail := range r.Checks {
			if prev, seen := wr.Checks[name]; !seen || prev == "" {
				wr.Checks[name] = detail
			}
		}
	}
	// End-to-end metrics come only from untraced rounds; per-layer
	// metrics from the traced rounds where those have them.
	wr.EndToEnd = aggregate(endToEnd, untraced)
	for _, m := range endToEnd {
		if mv, ok := wr.EndToEnd[m.name]; ok {
			b := boundFor(m, w)
			mv.Bound = &b
			wr.EndToEnd[m.name] = mv
		}
	}
	if len(untraced) > 0 {
		frac := float64(wr.Failed) / float64(max(wr.Attempted, 1))
		zero := 0.0
		wr.EndToEnd["ops_failed_frac"] = metricValue{
			Value: frac, Unit: "ratio", Clock: clockCount, Better: "lower", Bound: &zero, N: wr.Attempted, Rounds: []float64{frac},
		}
	}
	wr.PerLayer = aggregate(perLayer, traced)
	for name, mv := range aggregate(perLayer, untraced) {
		if _, ok := wr.PerLayer[name]; !ok {
			wr.PerLayer[name] = mv // counters that need no spans, and the slow checks' values
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		rate := "steps_per_s"
		if w.unit == "job" {
			rate = "jobs_per_s"
		}
		var tr, un []float64
		for _, r := range traced {
			tr = append(tr, r.Scalars[rate])
		}
		for _, r := range untraced {
			un = append(un, r.Scalars[rate])
		}
		wr.PerLayer["trace_overhead_frac"] = metricValue{
			Value: 1 - median(tr)/median(un), Unit: "ratio", Clock: clockHost, N: len(tr), Rounds: tr,
		}
	}
	return wr
}

func printReport(w io.Writer, rep *report, selected []*workload) {
	fmt.Fprintf(w, "benchmark ledger: seed=%d seconds=%g rounds=%d %s commit=%s nproc=%d gomaxprocs=%d\n",
		rep.Seed, rep.Seconds, rep.Rounds, rep.GoVersion, rep.Commit, rep.NProc, rep.GoMaxProcs)
	for _, wl := range selected {
		wr := rep.Workloads[wl.name]
		fmt.Fprintf(w, "\n== %s  n=%d, %d warm-up + %d timed %ss per round\n", wl.name, wr.N, wr.Warmup, wr.Units, wr.Unit)
		printMetrics(w, "end-to-end", endToEnd, wr.EndToEnd)
		printMetrics(w, "per-layer", perLayer, wr.PerLayer)
		names := make([]string, 0, len(wr.Checks))
		for name := range wr.Checks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			verdict := "ok"
			if wr.Checks[name] != "" {
				verdict = "FAILED: " + wr.Checks[name]
			}
			fmt.Fprintf(w, "  check %-36s %s\n", name, verdict)
		}
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, title string, defs []metricDef, cells map[string]metricValue) {
	if len(cells) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range defs {
		mv, ok := cells[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-36s %14.6g %-6s %-5s n=%d\n", m.name, mv.Value, mv.Unit, mv.Clock, mv.N)
	}
}

// printSummaryLine prints, as the last line of standard output, the one
// JSON object the BENCHMARK.json contract asks of a single-workload run:
// the end-to-end metrics untraced, every per-layer metric traced.
func printSummaryLine(w io.Writer, wr *workloadReport, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	if trace != traceOn {
		for _, m := range contractEndToEnd() {
			summary.Metrics[m.name] = value{wr.EndToEnd[m.name].Value, m.unit}
		}
	}
	if trace != traceOff {
		// A layer that did nothing on this workload reads 0. The ungated
		// end-to-end metrics ride along from the untraced reference round.
		for _, m := range contractPerLayer() {
			cell, ok := wr.PerLayer[m.name]
			if !ok {
				cell = wr.EndToEnd[m.name]
			}
			summary.Metrics[m.name] = value{cell.Value, m.unit}
		}
	}
	b, err := json.Marshal(summary) // fails on a NaN or infinite value
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the source revision: the VCS stamp when the build has
// one, else git when the tree is a repository, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
