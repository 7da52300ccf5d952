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

// TestSpoolRewriteKeepsMode rewrites a job's spec.json over a file made
// private (0600): the mode stays, the new spec reads back, and no temp
// file is left beside it.
func TestSpoolRewriteKeepsMode(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Dist: "uniform", N: 64, Machine: "ideal", Steps: 9}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSpec("j1", spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "j1", "spec.json")
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	spec.Steps = 11
	if err := sp.PutSpec("j1", spec); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 {
		t.Fatalf("rewritten spec.json: %v, mode %v, want 0600", err, info.Mode())
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "j1")); err != nil || len(ents) != 1 {
		t.Fatalf("job dir holds %v (%v), want only spec.json", ents, err)
	}
	jobs, errs := sp.Scan()
	if len(errs) != 0 || len(jobs) != 1 || jobs[0].Spec.Steps != 11 {
		t.Fatalf("scan after rewrite: %+v, %v", jobs, errs)
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
	// each from step zero — a step count with no particles behind it (a
	// particle-less resume.nbf beside a force-mode spec) is not a resume
	// point.
	spec := JobSpec{Dist: "uniform", N: 64, Machine: "ideal", Steps: 50}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	metaOnly := &frames.Frame{Meta: frames.Meta{Step: 40, MachineTime: 2.5}}
	for _, id := range []string{"jbadresume", "jmetaonly"} {
		if err := sp.PutSpec(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "jbadresume", "resume.nbf"), append(frames.Magic(), "garbage"...), 0o644)
	if _, err := sp.PutResume("jmetaonly", metaOnly); err != nil {
		t.Fatal(err)
	}
	// Potential mode has no particle state to save: there the same
	// particle-less keyframe is the whole resume point.
	pot := spec
	pot.Mode = "potential"
	if err := sp.PutSpec("jpot", pot); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PutResume("jpot", metaOnly); err != nil {
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
	// empty, badspec, the unreadable resume.nbf, and the particle-less one
	// beside a force-mode spec.
	if len(errs) != 4 {
		t.Fatalf("want 4 scan diagnostics, got %v", errs)
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
