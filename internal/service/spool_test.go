package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/frames"
)

func TestNilSpoolIsNoOp(t *testing.T) {
	sp, err := NewSpool("")
	if err != nil {
		t.Fatal(err)
	}
	if sp != nil {
		t.Fatal("empty dir should disable the spool")
	}
	if err := sp.PutSpec("x", JobSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PutResume("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutMeta("x", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if jobs, errs := sp.Scan(); jobs != nil || errs != nil {
		t.Fatal("nil spool scan should be empty")
	}
}

func TestSpoolRoundTrip(t *testing.T) {
	sp, err := NewSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Dist: "uniform", N: 64, Scheme: "spsa", Machine: "ideal", Steps: 9, Eps: 0.05}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSpec("j1", spec); err != nil {
		t.Fatal(err)
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(4)
	var f frames.Frame
	fillFrame(&f, sim, 4, 1.25)
	n, err := sp.PutResume("j1", &f)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("resume record size %d", n)
	}

	jobs, errs := sp.Scan()
	if len(errs) != 0 {
		t.Fatalf("scan errors: %v", errs)
	}
	if len(jobs) != 1 {
		t.Fatalf("want 1 recovered job, got %d", len(jobs))
	}
	rec := jobs[0]
	if rec.ID != "j1" || rec.resume.step != 4 || rec.resume.machineTime != 1.25 || rec.resume.sim == nil {
		t.Fatalf("bad recovery: %+v", rec)
	}
	if got := rec.resume.sim; got.Steps() != 4 || got.Time() != sim.Time() {
		t.Fatalf("restored clocks: steps=%d time=%v, want 4 and %v", got.Steps(), got.Time(), sim.Time())
	}
	for i, b := range sim.Bodies() {
		if got := rec.resume.sim.Bodies()[i]; got != b {
			t.Fatalf("body %d: restored %+v, saved %+v", i, got, b)
		}
	}
	if rec.Spec.N != 64 || rec.Spec.Steps != 9 {
		t.Fatalf("spec not preserved: %+v", rec.Spec)
	}

	if err := sp.Remove("j1"); err != nil {
		t.Fatal(err)
	}
	if jobs, _ := sp.Scan(); len(jobs) != 0 {
		t.Fatal("entry survived Remove")
	}
}

func TestSpoolScanSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory without spec.json.
	os.MkdirAll(filepath.Join(dir, "empty"), 0o755)
	// A bad spec.
	os.MkdirAll(filepath.Join(dir, "badspec"), 0o755)
	os.WriteFile(filepath.Join(dir, "badspec", "spec.json"), []byte("{nope"), 0o644)
	// Good specs whose saved state is unusable or absent: each recovered,
	// each from step zero — a step count with no particles behind it
	// (meta.json beside a force-mode spec) is not a resume point.
	spec := JobSpec{Dist: "uniform", N: 64, Machine: "ideal", Steps: 50}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, file := range map[string]string{"jbadresume": "resume.nbf", "jmetaonly": "meta.json"} {
		if err := sp.PutSpec(id, spec); err != nil {
			t.Fatal(err)
		}
		data := []byte(`{"step":40,"machine_time":2.5}`)
		if file == "resume.nbf" {
			data = append(frames.Magic(), "garbage"...)
		}
		os.WriteFile(filepath.Join(dir, id, file), data, 0o644)
	}
	// Potential mode has no particle state to save: there the same
	// meta.json is the whole resume point.
	pot := spec
	pot.Mode = "potential"
	if err := sp.PutSpec("jpot", pot); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutMeta("jpot", 40, 2.5); err != nil {
		t.Fatal(err)
	}

	jobs, errs := sp.Scan()
	steps := map[string]int{}
	for _, rec := range jobs {
		steps[rec.ID] = rec.resume.step
		if rec.resume.sim != nil {
			t.Errorf("job %s: restored a simulation from nothing", rec.ID)
		}
	}
	if len(jobs) != 3 || steps["jbadresume"] != 0 || steps["jmetaonly"] != 0 || steps["jpot"] != 40 {
		t.Fatalf("recovered steps %v, want jbadresume:0 jmetaonly:0 jpot:40", steps)
	}
	// empty, badspec, and the unreadable resume.nbf.
	if len(errs) != 3 {
		t.Fatalf("want 3 scan diagnostics, got %v", errs)
	}
}

func TestMetricsRender(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	m := newMetrics(clock)
	m.JobsSubmitted.Add(3)
	m.StepsTotal.Add(50)
	m.Workers.Store(2)
	m.JobsRunning.Add(1)
	m.AddMachineTime(1.5)

	// Zero uptime must not divide by zero.
	if out := m.Render(); !strings.Contains(out, "nbodyd_steps_per_second 0.0000") {
		t.Fatalf("zero-uptime render:\n%s", out)
	}
	clock.Advance(10 * time.Second)
	out := m.Render()
	for _, want := range []string{
		"nbodyd_jobs_submitted_total 3",
		"nbodyd_steps_total 50",
		"nbodyd_steps_per_second 5.0000",
		"nbodyd_worker_utilization 0.5000",
		"nbodyd_machine_seconds_total 1.500000",
		"nbodyd_uptime_seconds 10.000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
