// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5), plus the analytical claims of Section 4, on the
// simulated message-passing machine. Each experiment returns a Table that
// prints the same rows the paper reports, alongside the paper's published
// numbers where applicable, so shapes (who wins, how results scale) can
// be compared directly.
//
// Particle counts are scaled by Options.Scale relative to the paper's
// (the paper ran 63K–1.2M particles on real 256-processor machines; the
// default scale keeps a full reproduction run in minutes on a laptop).
// Conclusions in the paper rest on ratios and trends, which survive
// scaling; see DESIGN.md for the substitution argument.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
)

// Options control experiment scale.
type Options struct {
	// Scale multiplies the paper's particle counts (default 1/16).
	Scale float64
	// Seed makes dataset generation reproducible.
	Seed int64
	// MaxProcs caps the simulated processor counts (default 256, the
	// paper's maximum). Lowering it shortens runs.
	MaxProcs int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0 / 16
	}
	if o.Seed == 0 {
		o.Seed = 1994
	}
	if o.MaxProcs == 0 {
		o.MaxProcs = 256
	}
	return o
}

// Table is one regenerated table or figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// paperSets maps the paper's dataset names to generators.
var paperSets = map[string]struct {
	kind string
	n    int
}{
	"g_28131":   {"g", 28131},
	"g_160535":  {"g", 160535},
	"g_326214":  {"g", 326214},
	"g_657499":  {"g", 657499},
	"g_1192768": {"g2", 1192768}, // "contains two Gaussian distributions"
	"p_63192":   {"plummer", 63192},
	"p_353992":  {"plummer", 353992},
	"s_1g_a":    {"s_1g_a", 25130},
	"s_1g_b":    {"s_1g_b", 25130},
	"s_10g_a":   {"s_10g_a", 25130},
	"s_10g_b":   {"s_10g_b", 25130},
}

// Dataset regenerates a paper dataset at the option's scale.
func Dataset(name string, opt Options) (*dist.Set, error) {
	opt = opt.withDefaults()
	spec, ok := paperSets[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown paper dataset %q", name)
	}
	n := int(math.Round(float64(spec.n) * opt.Scale))
	if n < 64 {
		n = 64
	}
	return dist.Named(spec.kind, n, opt.Seed)
}

// runCfg describes one engine execution.
type runCfg struct {
	scheme   parbh.Scheme
	mode     parbh.Mode
	p        int
	alpha    float64
	degree   int
	eps      float64
	gridLog2 int
	profile  msg.CostProfile
	shipping parbh.Shipping
	lookup   parbh.Lookup
	ordering parbh.Ordering
	build    parbh.TreeBuild
	warmup   int
}

// Record captures one engine execution in machine-readable form, for
// the bhbench -json output consumed by CI perf tracking.
type Record struct {
	Scheme      string  `json:"scheme"`
	Mode        string  `json:"mode"`
	N           int     `json:"n"`
	P           int     `json:"p"`
	Machine     string  `json:"machine"`
	Alpha       float64 `json:"alpha"`
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
	Efficiency  float64 `json:"efficiency"`
	Speedup     float64 `json:"speedup"`
	Imbalance   float64 `json:"imbalance"`
	CommWords   int64   `json:"comm_words"`
}

// recorder collects Records from every run() while enabled. Guarded by
// a mutex because some experiments may run concurrently in tests.
var recorder struct {
	sync.Mutex
	active bool
	recs   []Record
}

// StartRecording begins capturing a Record per engine execution.
func StartRecording() {
	recorder.Lock()
	recorder.active = true
	recorder.recs = nil
	recorder.Unlock()
}

// StopRecording ends capture and returns the records in execution order.
func StopRecording() []Record {
	recorder.Lock()
	defer recorder.Unlock()
	recorder.active = false
	recs := recorder.recs
	recorder.recs = nil
	return recs
}

func record(set *dist.Set, c runCfg, wall time.Duration, res *parbh.Result) {
	recorder.Lock()
	defer recorder.Unlock()
	if !recorder.active {
		return
	}
	recorder.recs = append(recorder.recs, Record{
		Scheme:      c.scheme.String(),
		Mode:        c.mode.String(),
		N:           set.N(),
		P:           c.p,
		Machine:     c.profile.Name,
		Alpha:       c.alpha,
		WallSeconds: wall.Seconds(),
		SimSeconds:  res.SimTime,
		Efficiency:  res.Efficiency,
		Speedup:     res.Speedup,
		Imbalance:   res.Imbalance,
		CommWords:   res.CommWords,
	})
}

// run executes warmup+1 steps of the configured engine on the set and
// returns the final step's result (the paper times one iteration after
// letting the load balance settle).
func run(set *dist.Set, c runCfg) (*parbh.Result, error) {
	if c.warmup == 0 {
		c.warmup = 1
	}
	m := msg.NewMachine(c.p, c.profile)
	e, err := parbh.New(m, set, parbh.Config{
		Scheme:       c.scheme,
		Mode:         c.mode,
		Alpha:        c.alpha,
		Degree:       c.degree,
		Eps:          c.eps,
		GridLog2:     c.gridLog2,
		Shipping:     c.shipping,
		BranchLookup: c.lookup,
		Ordering:     c.ordering,
		TreeBuild:    c.build,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < c.warmup; i++ {
		e.Step()
	}
	res := e.Step()
	record(set, c, time.Since(start), res)
	return res, nil
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// procList trims the paper's processor counts to the MaxProcs cap.
func procList(opt Options, ps ...int) []int {
	var out []int
	for _, p := range ps {
		if p <= opt.MaxProcs {
			out = append(out, p)
		}
	}
	return out
}

// All runs every experiment and returns the tables in paper order.
func All(opt Options) ([]Table, error) {
	type gen struct {
		name string
		fn   func(Options) (Table, error)
	}
	gens := []gen{
		{"table1", Table1},
		{"table2", Table2},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"table6", Table6},
		{"fig9", Fig9},
		{"table7", Table7},
		{"scaling", ScalingTable},
		{"kw", KruskalWeissTable},
		{"ship", ShippingTable},
		{"let", LETTable},
		{"binsize", BinSizeTable},
		{"lookup", LookupTable},
		{"ordering", OrderingTable},
		{"treebuild", TreeBuildTable},
		{"fmm", FMMTable},
		{"serial", SerialTable},
		{"frames", FramesTable},
		{"transport", TransportTable},
		{"faults", FaultsTable},
		{"loadbalance", LoadBalanceTable},
	}
	var out []Table
	for _, g := range gens {
		t, err := g.fn(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID returns the generator for one experiment id.
func ByID(id string) (func(Options) (Table, error), bool) {
	m := map[string]func(Options) (Table, error){
		"1": Table1, "table1": Table1,
		"2": Table2, "table2": Table2,
		"3": Table3, "table3": Table3,
		"4": Table4, "table4": Table4,
		"5": Table5, "table5": Table5,
		"6": Table6, "table6": Table6,
		"7": Table7, "table7": Table7,
		"fig9": Fig9, "9": Fig9,
		"scaling":     ScalingTable,
		"kw":          KruskalWeissTable,
		"ship":        ShippingTable,
		"let":         LETTable,
		"binsize":     BinSizeTable,
		"lookup":      LookupTable,
		"ordering":    OrderingTable,
		"treebuild":   TreeBuildTable,
		"fmm":         FMMTable,
		"serial":      SerialTable,
		"frames":      FramesTable,
		"transport":   TransportTable,
		"faults":      FaultsTable,
		"loadbalance": LoadBalanceTable,
	}
	fn, ok := m[id]
	return fn, ok
}
