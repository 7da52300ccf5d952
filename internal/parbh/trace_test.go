package parbh

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/obsv"
	"repro/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// stepTraced is stepOnce with a tracer attached to the machine.
func stepTraced(t *testing.T, scheme Scheme, tr *obsv.Tracer) *Result {
	t.Helper()
	s := dist.MustNamed("g", 3000, 99)
	m := msg.NewMachine(8, msg.CM5())
	m.SetTracer(tr)
	e, err := New(m, s, Config{Scheme: scheme, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 4})
	if err != nil {
		t.Fatal(err)
	}
	return e.Step()
}

// TestTracingChangesNothing is the two-clock rule's golden test: every
// simulated metric, the clock included, must be bit-identical with tracing
// on and off, per scheme. A tracer hook that advances the simulated clock —
// or even perturbs a counter — fails here. The replayed function-shipping
// protocol records its message instants like any live send, so two traced
// runs must also export the same bytes.
func TestTracingChangesNothing(t *testing.T) {
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			off := stepTraced(t, scheme, nil)
			tr := obsv.New()
			on := stepTraced(t, scheme, tr)
			if tr.Len() == 0 {
				t.Fatal("tracer attached but no events recorded")
			}
			sameStep(t, off, on)

			again := obsv.New()
			stepTraced(t, scheme, again)
			var a, b bytes.Buffer
			if err := tr.WriteChrome(&a); err != nil {
				t.Fatal(err)
			}
			if err := again.WriteChrome(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("two traced runs of one step exported different traces")
			}
		})
	}
}

// TestTracedStepInvariantUnderHostParallelism extends the host-layer
// invariance guarantee to traced runs: with a tracer attached, nothing the
// simulated machine reports can depend on GOMAXPROCS.
func TestTracedStepInvariantUnderHostParallelism(t *testing.T) {
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			old := runtime.GOMAXPROCS(1)
			seq := stepTraced(t, scheme, obsv.New())
			runtime.GOMAXPROCS(4)
			par := stepTraced(t, scheme, obsv.New())
			runtime.GOMAXPROCS(old)
			sameStep(t, seq, par)
		})
	}
}

// TestTraceStructure checks, per scheme, that a traced in-proc step
// yields what the Perfetto export needs: simulated-clock events on
// every rank's track, per-phase spans, message instants, and — for an
// in-proc run — no host-clock events at all.
func TestTraceStructure(t *testing.T) {
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			tr := obsv.New()
			stepTraced(t, scheme, tr)

			ranks := map[int]bool{}
			spansByRank := map[int]int{}
			instants := 0
			stepSpans := 0
			for _, ev := range tr.Events() {
				if ev.Clock != obsv.SimClock {
					t.Fatalf("in-proc run recorded host-clock event %q", ev.Name)
				}
				ranks[ev.Rank] = true
				switch ev.Phase {
				case obsv.SpanPhase:
					spansByRank[ev.Rank]++
					if ev.Name == "step" {
						stepSpans++
					}
				case obsv.InstantPhase:
					instants++
				}
			}
			for r := 0; r < 8; r++ {
				if !ranks[r] {
					t.Errorf("rank %d has no events", r)
				}
				if spansByRank[r] == 0 {
					t.Errorf("rank %d has no spans", r)
				}
			}
			if stepSpans != 8 {
				t.Errorf("step spans = %d, want one per rank", stepSpans)
			}
			if instants == 0 {
				t.Error("no message instants recorded")
			}
		})
	}
}

// cornerSet builds a dataset whose particles all sit in one corner grid
// cell. Under SPSA that entire cluster — and with it the whole tree —
// lands on a single rank, which keeps the golden file small: the force
// phase is then one rank's sweep and the termination wave.
func cornerSet() *dist.Set {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	set := &dist.Set{Domain: vec.Box{Min: vec.V3{X: 0, Y: 0, Z: 0}, Max: vec.V3{X: 16, Y: 16, Z: 16}}}
	for i := 0; i < n; i++ {
		set.Particles = append(set.Particles, dist.Particle{
			ID:   i,
			Mass: 1.0 / n,
			Pos: vec.V3{
				X: rng.Float64(),
				Y: rng.Float64(),
				Z: rng.Float64(),
			},
		})
	}
	return set
}

func traceCornerRun(t *testing.T) []byte {
	t.Helper()
	tr := obsv.New()
	m := msg.NewMachine(2, msg.CM5())
	m.SetTracer(tr)
	e, err := New(m, cornerSet(), Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenChromeTrace pins the full Chrome export of a 2-rank SPSA
// step on the corner dataset byte-for-byte. Run with -update after an
// intentional change to the trace format or the phase hooks.
func TestGoldenChromeTrace(t *testing.T) {
	first := traceCornerRun(t)
	second := traceCornerRun(t)
	if !bytes.Equal(first, second) {
		t.Fatal("corner-run trace is not reproducible across runs; golden comparison impossible")
	}

	path := filepath.Join("testdata", "trace_spsa_2rank.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/parbh -run GoldenChromeTrace -update)", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("trace drifted from golden %s;\nif intentional, regenerate with -update\ngot %d bytes, want %d",
			path, len(first), len(want))
		// Show the first differing line for diagnosis.
		gotLines := bytes.Split(first, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("first diff at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}

	// The golden trace must carry no wall-clock contamination: every
	// event sits on the simulated clock.
	if bytes.Contains(first, []byte(fmt.Sprintf(`"pid":%d`, obsv.HostPID))) {
		t.Error("golden trace contains host-clock events")
	}
}
