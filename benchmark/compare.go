package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Verdicts of -compare for one (end-to-end metric, workload) pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareFiles prints, for every (end-to-end metric, workload) of two
// result files, both medians, the quartiles of their rounds, the bound
// and a verdict. a is the baseline. It reports whether any pairing is
// worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit=%s seed=%d\nb: %s  commit=%s seed=%d\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-20s %-20s %12s %25s %12s %25s %6s  %s\n", "workload", "metric", "a median", "a [q1 q3]", "b median", "b [q1 q3]", "bound", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	anyWorse := false
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			ca, okA := wa.EndToEnd[m.name]
			cb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v := verdict(ca, cb)
			anyWorse = anyWorse || v == verdictWorse
			fmt.Fprintf(w, "%-20s %-20s %12.6g %25s %12.6g %25s %6.2f  %s\n", name, m.name,
				ca.Value, quartiles(ca.Rounds), cb.Value, quartiles(cb.Rounds), *ca.Bound, v)
		}
	}
	return anyWorse, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func quartiles(vs []float64) string {
	return fmt.Sprintf("[%.5g %.5g]", quantile(vs, 0.25), quantile(vs, 0.75))
}

// verdict judges b against the baseline a. The metric is worse when b's
// median is worse than a's by more than the bound (as a share of a's
// median). When the spread between a set's own rounds is wider than the
// bound and the two sets' rounds overlap, the data cannot tell: that is
// unresolved, not unchanged. With bound 0 any worsening counts.
func verdict(a, b metricValue) string {
	bound := *a.Bound
	sign := 1.0 // positive delta = worse
	if a.Better == "higher" {
		sign = -1
	}
	base := a.Value
	if base < 0 {
		base = -base
	}
	worsening := sign * (b.Value - a.Value)
	isWorse := worsening > bound*base
	if bound > 0 && base > 0 {
		iqr := func(c metricValue) float64 { return quantile(c.Rounds, 0.75) - quantile(c.Rounds, 0.25) }
		spread := max(iqr(a), iqr(b)) / base
		if spread > bound && overlap(a.Rounds, b.Rounds) {
			return verdictUnresolved
		}
	}
	if isWorse {
		return verdictWorse
	}
	return verdictOK
}

// overlap reports whether the two sets' ranges intersect, i.e. neither
// set reads entirely above or entirely below the other.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
}
