package barneshut

import (
	"bytes"
	"encoding/gob"
	"os"
	"strings"
	"testing"
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

func TestCheckpointVersionCheck(t *testing.T) {
	set := NewPlummer(50, 1, V3{}, 22)
	sim, err := NewSimulation(set, Config{Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRejectsFutureVersion(t *testing.T) {
	// Hand-encode a structurally valid checkpoint stamped by a "newer
	// release" and assert the version gate fires with a clear message.
	cp := checkpoint{
		Version: checkpointVersion + 7,
		Config:  Config{Processors: 1, Profile: IdealMachine()},
		Bodies:  NewPlummer(10, 1, V3{}, 5).Particles,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(&buf)
	if err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version error not descriptive: %v", err)
	}
}

func TestCheckpointRejectsAncientVersion(t *testing.T) {
	// A structurally valid stream stamped with a version below
	// checkpointMinVersion must hit the explicit old-version error path,
	// not decode as if it were current.
	cp := checkpoint{
		Version: checkpointMinVersion - 1,
		Config:  Config{Processors: 1, Profile: IdealMachine()},
		Bodies:  NewPlummer(10, 1, V3{}, 5).Particles,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(&buf)
	if err == nil {
		t.Fatal("ancient-version checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "predates") {
		t.Fatalf("old-version error not descriptive: %v", err)
	}
}

func TestCheckpointAcceptsV1(t *testing.T) {
	// v1 streams must keep decoding.
	cp := checkpoint{
		Version: 1,
		Config:  Config{Processors: 2, Profile: IdealMachine(), DT: 0.01},
		Time:    0.05,
		Steps:   5,
		Bodies:  NewPlummer(40, 1, V3{}, 6).Particles,
	}
	cp.Domain = NewPlummer(40, 1, V3{}, 6).Domain
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	sim, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if sim.Steps() != 5 {
		t.Fatalf("v1 restore: steps=%d", sim.Steps())
	}
}

// TestCheckpointAcceptsV2WithFrameStep decodes a stream recorded at the
// last commit whose checkpoints carried FrameStep (set to 17 there): the
// field is dropped and everything else restores as the same run
// recomputed here.
func TestCheckpointAcceptsV2WithFrameStep(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("FrameStep")) {
		t.Fatal("fixture is not a v2 stream with FrameStep")
	}
	restored, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 checkpoint rejected: %v", err)
	}
	want, err := NewSimulation(NewPlummer(12, 1, V3{}, 25), Config{Processors: 2, Profile: IdealMachine(), Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want.Run(3)
	if restored.Steps() != 3 || restored.Time() != want.Time() || restored.Config() != want.Config() {
		t.Fatalf("v2 restore: steps=%d time=%v config=%+v", restored.Steps(), restored.Time(), restored.Config())
	}
	got, ref := restored.Bodies(), want.Bodies()
	if len(got) != len(ref) {
		t.Fatalf("v2 restore: %d bodies, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("body %d: restored %+v, recomputed %+v", i, got[i], ref[i])
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
	state := &ParticleSet{Particles: src.Bodies(), Domain: src.Domain()}
	restored, err := RestoreSimulation(state, src.Config(), src.Time(), src.Steps())
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
	if _, err := RestoreSimulation(&ParticleSet{}, src.Config(), 0, 0); err == nil {
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
	// Flip bytes in the middle of the gob stream.
	for i := len(data) / 2; i < len(data)/2+16 && i < len(data); i++ {
		data[i] ^= 0xA5
	}
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestCheckpointRejectsEmptyBodies(t *testing.T) {
	cp := checkpoint{Version: checkpointVersion, Config: Config{Processors: 1, Profile: IdealMachine()}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(&buf)
	if err == nil || !strings.Contains(err.Error(), "no particles") {
		t.Fatalf("empty checkpoint: %v", err)
	}
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
