// Command bhbench regenerates the paper's tables and figures on the
// simulated message-passing machine.
//
// Usage:
//
//	bhbench -table all                 # every experiment, paper order
//	bhbench -table 1                   # Table 1 only
//	bhbench -table fig9 -scale 0.25    # Fig 9 at quarter particle counts
//	bhbench -table ship -maxprocs 16   # cap the simulated machine size
//	bhbench -table 1 -json             # machine-readable per-run results
//
// Known ids: 1..7, fig9, kw (Section 4.1), ship (Section 4.2),
// let (communication strategies incl. locally essential trees),
// binsize, lookup, ordering, treebuild (ablations), serial (host
// wall-clock of the serial kernels — real seconds, not simulated),
// frames (columnar frame-store append/replay/compact, host wall-clock).
//
// -cpuprofile/-memprofile write pprof profiles of the host process, for
// digging into where the compute layer spends real time and memory.
//
// With -json, bhbench suppresses the text tables and prints a single
// JSON document: the rendered tables plus one record per engine
// execution (scheme, n, p, machine, wall/simulated time, efficiency),
// so CI can track the performance trajectory across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// jsonReport is the -json output document.
type jsonReport struct {
	Scale          float64              `json:"scale"`
	MaxProcs       int                  `json:"maxprocs"`
	Seed           int64                `json:"seed"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Tables         []jsonTable          `json:"tables"`
	Runs           []experiments.Record `json:"runs"`
}

// jsonTable mirrors experiments.Table with lowercase JSON keys.
type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() { os.Exit(run()) }

// run holds the real main so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func run() int {
	var (
		table      = flag.String("table", "all", "experiment id or 'all'")
		scale      = flag.Float64("scale", 1.0/16, "particle-count scale relative to the paper")
		maxProcs   = flag.Int("maxprocs", 256, "cap on simulated processor counts")
		seed       = flag.Int64("seed", 1994, "dataset generation seed")
		asJSON     = flag.Bool("json", false, "emit a JSON document with per-run records instead of text tables")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bhbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bhbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bhbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bhbench:", err)
			}
		}()
	}

	opt := experiments.Options{Scale: *scale, MaxProcs: *maxProcs, Seed: *seed}
	if *asJSON {
		experiments.StartRecording()
	}
	start := time.Now()
	var tabs []experiments.Table
	if *table == "all" {
		var err error
		tabs, err = experiments.All(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bhbench:", err)
			return 1
		}
	} else {
		fn, ok := experiments.ByID(*table)
		if !ok {
			fmt.Fprintf(os.Stderr, "bhbench: unknown experiment %q\n", *table)
			return 2
		}
		t, err := fn(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bhbench:", err)
			return 1
		}
		tabs = []experiments.Table{t}
	}
	elapsed := time.Since(start).Seconds()

	if *asJSON {
		report := jsonReport{
			Scale:          *scale,
			MaxProcs:       *maxProcs,
			Seed:           *seed,
			ElapsedSeconds: elapsed,
			Runs:           experiments.StopRecording(),
		}
		for _, t := range tabs {
			report.Tables = append(report.Tables, jsonTable(t))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "bhbench:", err)
			return 1
		}
		return 0
	}
	for _, t := range tabs {
		fmt.Println(t.Format())
	}
	fmt.Printf("elapsed: %.1fs (scale=%.4g, maxprocs=%d)\n",
		elapsed, *scale, *maxProcs)
	return 0
}
