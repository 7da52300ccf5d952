package barneshut

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHistoryRecordsAndCSV(t *testing.T) {
	set := NewPlummer(200, 1, V3{}, 61)
	sim, err := NewSimulation(set, Config{Processors: 2, Scheme: DPDA, Eps: 0.05, Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var h History
	for i := 0; i < 3; i++ {
		res := sim.Step()
		h.Record(sim, res)
	}
	if len(h.Entries) != 3 {
		t.Fatalf("entries = %d", len(h.Entries))
	}
	for i, e := range h.Entries {
		if e.Step != i+1 {
			t.Fatalf("entry %d has step %d", i, e.Step)
		}
		if e.SimTime <= 0 || e.Kinetic <= 0 {
			t.Fatalf("entry %d not populated: %+v", i, e)
		}
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "step,time,sim_time") {
		t.Fatalf("header = %q", lines[0])
	}
	mean, eff, imb := h.Summary()
	if mean <= 0 || eff <= 0 || imb < 1 {
		t.Fatalf("summary = %v %v %v", mean, eff, imb)
	}
}

func TestHistoryCSVFullPrecision(t *testing.T) {
	// Every float column must round-trip through the CSV bit-exactly:
	// the old %g formatting rounded to 6 significant digits, which
	// silently corrupted goldens rebuilt from written histories.
	h := History{Entries: []HistoryEntry{{
		Step:       1,
		Time:       0.30000000000000004, // 0.1+0.2: needs 17 digits
		SimTime:    1.0 / 3.0,
		Efficiency: 0.12345678901234567,
		Imbalance:  1.0000000000000002, // one ulp above 1: %g prints "1"
		Kinetic:    6.02214076e23,
	}}}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	e := h.Entries[0]
	want := map[int]float64{1: e.Time, 2: e.SimTime, 3: e.Efficiency, 4: e.Imbalance, 9: e.Kinetic}
	for col, w := range want {
		got, err := strconv.ParseFloat(rows[1][col], 64)
		if err != nil {
			t.Fatalf("col %d %q: %v", col, rows[1][col], err)
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("col %d: %q parses to %x, want %x", col, rows[1][col],
				math.Float64bits(got), math.Float64bits(w))
		}
	}
}

func TestHistoryNilResultIgnored(t *testing.T) {
	var h History
	h.Record(nil, nil)
	if len(h.Entries) != 0 {
		t.Fatal("nil result recorded")
	}
	if m, e, i := h.Summary(); m != 0 || e != 0 || i != 1 {
		t.Fatal("empty summary wrong")
	}
}
