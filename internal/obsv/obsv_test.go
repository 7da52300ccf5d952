package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestNilTracerIsNoOp pins the nil-receiver contract every hook relies
// on: a nil *Tracer accepts all calls and records nothing.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	tr.SimSpan(0, "a", "b", 0, 1)
	tr.SimInstant(0, "a", "b", 0)
	tr.HostSpan(0, "a", "b", time.Now(), time.Now().Add(time.Millisecond))
	tr.HostInstant(0, "a", "b", time.Now())
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

// TestEmptySpansDropped: the phase hooks emit unconditionally, so
// zero-length spans (clock stood still) must vanish.
func TestEmptySpansDropped(t *testing.T) {
	tr := New()
	tr.SimSpan(0, "empty", "phase", 2.5, 2.5)
	tr.SimSpan(0, "backwards", "phase", 3, 2)
	if tr.Len() != 0 {
		t.Fatalf("recorded %d events from degenerate spans", tr.Len())
	}
	tr.SimSpan(0, "real", "phase", 2, 3)
	if tr.Len() != 1 {
		t.Fatalf("real span not recorded (len %d)", tr.Len())
	}
}

// TestCapDrops: events beyond the cap are counted, not stored, and the
// Chrome export declares the drop count.
func TestCapDrops(t *testing.T) {
	tr := NewWithCap(3)
	for i := 0; i < 5; i++ {
		tr.SimInstant(0, "e", "c", float64(i))
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"droppedEvents":2`) {
		t.Fatalf("export does not declare drops:\n%s", buf.String())
	}
}

// TestChromeDeterministic: the same events appended in different
// interleavings (here: concurrently) must export byte-identically.
func TestChromeDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New()
		var wg sync.WaitGroup
		for rank := 0; rank < 4; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for s := 0; s < 10; s++ {
					base := float64(s)
					tr.SimSpan(rank, "force", "phase", base, base+0.5, Int("step", s))
					tr.SimInstant(rank, "send", "msg", base+0.25,
						Int("dst", (rank+1)%4), Int("words", 12))
				}
			}(rank)
		}
		wg.Wait()
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("concurrent append order leaked into the export")
	}
}

// chromeDoc mirrors the export's top-level shape for parsing in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestChromeStructure checks the exported JSON parses and has the
// pieces Perfetto needs: process/thread metadata per track, spans with
// durations, thread-scoped instants, µs timestamps.
func TestChromeStructure(t *testing.T) {
	tr := New()
	tr.SimSpan(0, "force", "phase", 1.0, 1.5)
	tr.SimSpan(1, "force", "phase", 1.0, 1.25)
	tr.SimInstant(1, "send", "msg", 1.1, Int("dst", 0))
	tr.HostInstant(0, "recv frame", "transport", time.Now())

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var procNames, threadNames, spans, instants int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procNames++
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames++
		case ev.Ph == "X":
			spans++
			if ev.Dur == nil {
				t.Fatalf("span %q has no dur", ev.Name)
			}
		case ev.Ph == "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("instant %q scope = %q, want t", ev.Name, ev.S)
			}
		}
	}
	// Tracks: sim rank 0, sim rank 1, host proc 0 → 3 thread names over
	// 2 processes.
	if procNames != 2 || threadNames != 3 {
		t.Fatalf("metadata: %d process_name, %d thread_name (want 2, 3)", procNames, threadNames)
	}
	if spans != 2 || instants != 2 {
		t.Fatalf("events: %d spans, %d instants (want 2, 2)", spans, instants)
	}
	// Simulated seconds appear as microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == SimPID && ev.Tid == 0 {
			if ev.Ts != 1.0e6 || *ev.Dur != 0.5e6 {
				t.Fatalf("sim span ts/dur = %g/%g µs, want 1e6/0.5e6", ev.Ts, *ev.Dur)
			}
		}
	}
}

func TestProfileWork(t *testing.T) {
	p := ProfileWork([]float64{1, 2, 3, 2})
	if p.Max != 3 || p.Mean != 2 {
		t.Fatalf("max/mean = %g/%g", p.Max, p.Mean)
	}
	if p.MaxOverMean != 1.5 {
		t.Fatalf("maxOverMean = %g", p.MaxOverMean)
	}
	if want := (3 - 1.0) + (3 - 2.0) + 0 + (3 - 2.0); p.IdleTotal != want {
		t.Fatalf("idleTotal = %g, want %g", p.IdleTotal, want)
	}
	if want := p.IdleTotal / (3 * 4); math.Abs(p.IdleFrac-want) > 1e-15 {
		t.Fatalf("idleFrac = %g, want %g", p.IdleFrac, want)
	}

	// Degenerate inputs.
	if z := ProfileWork(nil); z.Max != 0 || z.MaxOverMean != 0 {
		t.Fatalf("nil input profile = %+v", z)
	}
	if z := ProfileWork([]float64{0, 0}); z.MaxOverMean != 1 {
		t.Fatalf("all-zero work maxOverMean = %g, want 1", z.MaxOverMean)
	}

	// The input is copied, not aliased.
	in := []float64{5}
	p = ProfileWork(in)
	in[0] = 7
	if p.Work[0] != 5 {
		t.Fatal("ProfileWork aliased its input")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("test_seconds", "Help text.", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	var b strings.Builder
	h.Render(&b)
	got := b.String()
	want := "# HELP test_seconds Help text.\n" +
		"# TYPE test_seconds histogram\n" +
		"test_seconds_bucket{le=\"1\"} 2\n" + // 0.5 and 1 (le is inclusive)
		"test_seconds_bucket{le=\"10\"} 3\n" +
		"test_seconds_bucket{le=\"+Inf\"} 4\n" +
		"test_seconds_sum 106.5\n" +
		"test_seconds_count 4\n"
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("c", "", ExpBuckets(1, 2, 4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if sum := math.Float64frombits(h.sum.Load()); sum != 8000 {
		t.Fatalf("sum = %g, want 8000", sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestTraceLink drives a two-node in-process mesh through the wrapper
// and checks the host-clock events land: a send span on the sender, a
// delivery instant on the receiver, control instants for the host
// channel.
func TestTraceLink(t *testing.T) {
	nodes := transport.NewMesh(2, nil)
	t.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})
	tr := New()
	a := WrapLink(nodes[0], tr)
	b := WrapLink(nodes[1], tr)
	if got := WrapLink(nodes[0], nil); got != transport.Link(nodes[0]) {
		t.Fatal("WrapLink(nil tracer) must return the link unchanged")
	}

	delivered := make(chan *transport.Frame, 1)
	b.SetDataHandler(func(f *transport.Frame) { delivered <- f })
	if err := a.SendData(1, &transport.Frame{Src: 0, Dst: 1, Tag: 7, Words: 3}); err != nil {
		t.Fatal(err)
	}
	f := <-delivered
	if f.Tag != 7 || f.Words != 3 {
		t.Fatalf("frame mangled by wrapper: %+v", f)
	}

	if err := a.HostSend(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.HostRecv(); err != nil {
		t.Fatal(err)
	}

	names := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Clock != HostClock {
			t.Fatalf("TraceLink recorded a %v-clock event %q", ev.Clock, ev.Name)
		}
		names[ev.Name]++
	}
	for _, want := range []string{"send frame", "recv frame", "host send", "host recv"} {
		if names[want] != 1 {
			t.Fatalf("event %q count = %d, want 1 (all: %v)", want, names[want], names)
		}
	}
}
