package barneshut

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frames"
	"repro/internal/recio"
)

func TestCheckpointRoundTrip(t *testing.T) {
	set := NewPlummer(300, 1, V3{}, 21)
	sim, err := NewSimulation(set, Config{
		Processors: 4, Scheme: DPDA, Alpha: 0.6, Eps: 0.05, DT: 0.01,
		Profile: IdealMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)

	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != sim.Steps() || restored.Time() != sim.Time() {
		t.Fatalf("clock mismatch: %d/%v vs %d/%v",
			restored.Steps(), restored.Time(), sim.Steps(), sim.Time())
	}
	a, b := sim.Bodies(), restored.Bodies()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body %d differs after restore", i)
		}
	}
	// The restored simulation must keep producing physically consistent
	// steps anchored to the same domain.
	r1 := sim.Step()
	r2 := restored.Step()
	var num, den float64
	for i := range r1.Accels {
		num += r1.Accels[i].Sub(r2.Accels[i]).Norm2()
		den += r1.Accels[i].Norm2()
	}
	// The restored engine rebuilds its decomposition from scratch, so
	// forces agree to decomposition tolerance, not bitwise.
	if num/den > 1e-4 {
		t.Fatalf("restored forces diverge: %v", num/den)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCheckpointRejectsFutureVersion(t *testing.T) {
	// A structurally valid checkpoint stamped by a "newer release" must
	// hit the version gate with a clear message.
	sim, err := NewSimulation(NewPlummer(10, 1, V3{}, 5), Config{Processors: 1, Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Bytes()[len(checkpointMagic)-1] += 7
	_, err = ReadCheckpoint(&buf)
	if err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version error not descriptive: %v", err)
	}
}

// TestCheckpointRefusesLegacyGob reads a gob checkpoint of the format
// older releases wrote (a run of 12 bodies on 2 processors) and requires
// a refusal that names the format.
func TestCheckpointRefusesLegacyGob(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadCheckpoint(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("legacy gob checkpoint: %v", err)
	}
}

// TestCheckpointResumeBitIdentical checkpoints an SPSA run to a file at
// step k, resumes it through ReadCheckpoint and requires the bodies of
// both runs bit-equal at the end: SPSA's clusters are fixed by position,
// so the resume is exact. The Plummer set's cube is one whose Cube is not
// itself, so the resumed engine must take the saved root cell as it is.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	set := NewPlummer(300, 1, V3{}, 87)
	if d := set.Domain.Cube(); d.Cube() == d {
		t.Fatal("the root cell is a fixed point of Cube: the test no longer covers a re-cubed domain")
	}
	cfg := Config{Processors: 4, Scheme: SPSA, Alpha: 0.6, Eps: 0.05, DT: 0.01, Profile: IdealMachine()}
	want, err := NewSimulation(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Run(6)
	sim, err := NewSimulation(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := recio.WriteFile(path, sim.WriteCheckpoint); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Domain() != sim.Domain() {
		t.Fatalf("resumed root cell %+v, saved %+v", resumed.Domain(), sim.Domain())
	}
	resumed.Run(3)
	if resumed.Steps() != want.Steps() || resumed.Time() != want.Time() {
		t.Fatalf("clocks: %d/%v, want %d/%v", resumed.Steps(), resumed.Time(), want.Steps(), want.Time())
	}
	for i, b := range want.Bodies() {
		if got := resumed.Bodies()[i]; got != b {
			t.Fatalf("body %d: resumed %+v, uninterrupted %+v", i, got, b)
		}
	}
}

func TestRestoreSimulation(t *testing.T) {
	set := NewPlummer(80, 1, V3{}, 26)
	src, err := NewSimulation(set, Config{Processors: 2, Profile: IdealMachine(), DT: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	src.Run(4)
	state := &frames.Frame{Meta: frames.Meta{Step: int64(src.Steps()), Time: src.Time(), Domain: src.Domain()}}
	state.Parts.Gather(src.Bodies())
	restored, err := RestoreSimulation(state, src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != src.Steps() || restored.Time() != src.Time() {
		t.Fatalf("clock mismatch after restore: %d/%v vs %d/%v",
			restored.Steps(), restored.Time(), src.Steps(), src.Time())
	}
	a, b := src.Bodies(), restored.Bodies()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body %d differs after restore", i)
		}
	}
	if _, err := RestoreSimulation(&frames.Frame{}, src.Config()); err == nil {
		t.Fatal("empty restore accepted")
	}
}

func TestCheckpointRejectsTruncated(t *testing.T) {
	set := NewPlummer(100, 1, V3{}, 23)
	sim, err := NewSimulation(set, Config{Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cutting the stream anywhere must yield a decode error mentioning
	// the checkpoint, never a partial Simulation.
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 1} {
		_, err := ReadCheckpoint(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("truncation error not descriptive: %v", err)
		}
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	set := NewPlummer(100, 1, V3{}, 24)
	sim, err := NewSimulation(set, Config{Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip bytes in the middle of the stream.
	for i := len(data) / 2; i < len(data)/2+16 && i < len(data); i++ {
		data[i] ^= 0xA5
	}
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestCheckpointRejectsEmptyBodies(t *testing.T) {
	cfg := Config{Processors: 1, Profile: IdealMachine(), DT: 0.01, Integrator: "leapfrog"}
	buf := bytes.NewBuffer(appendConfigRecord([]byte(checkpointMagic), cfg))
	if _, err := frames.WriteKeyframe(buf, &frames.Frame{}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(buf)
	if err == nil || !strings.Contains(err.Error(), "no particles") {
		t.Fatalf("empty checkpoint: %v", err)
	}
}

// FuzzReadCheckpoint feeds ReadCheckpoint what a -resume file may hold:
// it must not panic, and any stream it accepts must write back byte for
// byte.
func FuzzReadCheckpoint(f *testing.F) {
	sim, err := NewSimulation(NewPlummer(12, 1, V3{}, 25), Config{Processors: 2, Profile: IdealMachine(), Eps: 0.05})
	if err != nil {
		f.Fatal(err)
	}
	sim.Run(2)
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile("testdata/checkpoint_v2.gob")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{buf.Bytes(), legacy} {
		for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 40, 4, 0} {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := sim.WriteCheckpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted a %d-byte stream that writes back as %d different bytes", len(data), out.Len())
		}
	})
}

func TestFMMPublicAPI(t *testing.T) {
	set := NewPlummer(1000, 1, V3{}, 23)
	pots, stats := FMMPotentials(set, FMMConfig{Degree: 5, Theta: 0.5})
	exact := DirectPotentials(set, 0)
	var num, den float64
	for i := range exact {
		d := exact[i] - pots[i]
		num += d * d
		den += exact[i] * exact[i]
	}
	if num/den > 1e-8 {
		t.Fatalf("FMM error %v", num/den)
	}
	if stats.M2L == 0 {
		t.Fatal("no M2L work recorded")
	}
}

func TestFMMAccelsPublicAPI(t *testing.T) {
	set := NewPlummer(800, 1, V3{}, 24)
	acc, _ := FMMAccels(set, FMMConfig{Degree: 6, Theta: 0.5})
	want := DirectForces(set, 0)
	var num, den float64
	for i := range want {
		num += acc[i].Sub(want[i]).Norm2()
		den += want[i].Norm2()
	}
	if num/den > 1e-6 {
		t.Fatalf("FMM force error %v", num/den)
	}
}
