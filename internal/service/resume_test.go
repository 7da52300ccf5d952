package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/frames"
)

// TestResumeAfterRestart kills a daemon mid-job (in process), restarts
// against the same spool directory, and asserts the job picks up at the
// step it was stopped at and finishes with a particle state and a
// machine-time accumulator bit-identical to an uninterrupted run of the
// same spec — whichever file its resume point was in:
//
//   - frames: the chain is the checkpoint; the job directory holds the
//     spec and nothing else, running or stopped;
//   - no frames: resume.nbf, one keyframe record, written at the
//     CheckpointEvery cadence and at shutdown;
//   - chain broken mid-run: writes to the chain start failing (disk
//     full), capture stops, the next cadence point writes resume.nbf, and
//     recovery prefers it to the shorter chain.
//
// SPSA is used deliberately: its partitioning and assignment are fully
// determined by the current particle positions, so a resumed run follows
// the exact trajectory of an uninterrupted one. (SPDA/DPDA rebalance
// from measured loads, which a restart resets; they resume physically
// but not bitwise.)
func TestResumeAfterRestart(t *testing.T) {
	base := JobSpec{
		Dist: "plummer", N: 200, Processors: 4, Scheme: "spsa",
		Machine: "ideal", Steps: 200, Eps: 0.05, DT: 0.01, Seed: 7,
		CheckpointEvery: 1,
	}
	refBodies, refMachine := referenceRun(t, base)

	for _, row := range []struct {
		name       string
		keyEvery   int
		breakChain bool
		stopped    []string // the job's spool directory after the shutdown
	}{
		{"frames", 0, false, []string{"spec.json"}},
		{"no frames", -1, false, []string{"resume.nbf", "spec.json"}},
		{"chain broken mid-run", 0, true, []string{"resume.nbf", "spec.json"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			spool := t.TempDir()
			spec := base
			spec.FramesKeyEvery = row.keyEvery

			// Daemon A: submit and let it get partway in.
			svcA, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			svcA.Start()
			tsA := httptest.NewServer(svcA.Handler())
			_, job := postJob(t, tsA, spec)
			waitUntil(t, "job past step 5", func() bool {
				return getStatus(t, tsA, job.ID).Progress.Step >= 5
			})
			chain := svcA.spool.framesFile(job.ID)
			if row.keyEvery >= 0 {
				if got := spoolFiles(t, spool, job.ID); len(got) != 1 || got[0] != "spec.json" {
					t.Fatalf("running framed job's spool directory holds %v, want only spec.json", got)
				}
			}
			if row.breakChain {
				failWrites(t, chain)
				waitUntil(t, "resume.nbf after capture stopped", func() bool {
					_, err := os.Stat(svcA.spool.resumeFile(job.ID))
					return err == nil
				})
			}

			// "Kill" daemon A: stop HTTP, drain the worker. The worker
			// leaves the job unfinished in the spool.
			tsA.Close()
			shutdownService(t, svcA)
			interrupted, err := svcA.Get(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			stoppedAt := interrupted.Progress.Step
			if stoppedAt >= spec.Steps {
				t.Fatalf("job finished (step %d) before the restart; nothing to resume", stoppedAt)
			}
			if got := spoolFiles(t, spool, job.ID); !reflect.DeepEqual(got, row.stopped) {
				t.Fatalf("stopped job's spool directory holds %v, want %v", got, row.stopped)
			}
			switch tail, err := frames.Tail(chain); {
			case row.keyEvery < 0:
				if !os.IsNotExist(err) {
					t.Fatalf("frameless job has a chain (tail error %v)", err)
				}
			case err != nil || tail == nil:
				t.Fatalf("chain unreadable: %v", err)
			case row.breakChain && int(tail.Meta.Step) >= stoppedAt:
				t.Fatalf("broken chain reaches step %d, the job step %d: nothing to prefer resume.nbf for", tail.Meta.Step, stoppedAt)
			}

			// Daemon B on the same spool: the job must come back with the
			// same ID, resume where it stopped, and run to completion.
			svcB, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			st, err := svcB.Get(job.ID)
			if err != nil {
				t.Fatalf("job not recovered from spool: %v", err)
			}
			if st.ResumedFrom != stoppedAt || st.Progress.Step != stoppedAt {
				t.Fatalf("recovered job resumes from step %d (progress %d), stopped at %d", st.ResumedFrom, st.Progress.Step, stoppedAt)
			}
			if got := svcB.Metrics().JobsResumed.Load(); got != 1 {
				t.Fatalf("resumed counter %d", got)
			}
			svcB.Start()
			tsB := httptest.NewServer(svcB.Handler())
			defer tsB.Close()
			defer shutdownService(t, svcB)
			waitUntil(t, "resumed job done", func() bool {
				return getStatus(t, tsB, job.ID).State == StateDone
			})

			// The resumed result must be bit-identical to the uninterrupted run.
			resp, err := http.Get(tsB.URL + "/api/v1/jobs/" + job.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var res Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			if res.Steps != spec.Steps {
				t.Fatalf("resumed job ran %d steps, want %d", res.Steps, spec.Steps)
			}
			if res.MachineTime != refMachine {
				t.Fatalf("machine time after resume: %.17g, want %.17g", res.MachineTime, refMachine)
			}
			if len(res.Bodies) != len(refBodies) {
				t.Fatalf("body count %d vs %d", len(res.Bodies), len(refBodies))
			}
			for i := range refBodies {
				if res.Bodies[i] != refBodies[i] {
					t.Fatalf("body %d differs after resume:\n resumed %+v\n reference %+v",
						i, res.Bodies[i], refBodies[i])
				}
			}

			// The spool entry is gone once the job completed.
			if jobs, _ := svcB.spool.Scan(); len(jobs) != 0 {
				t.Fatalf("spool not cleaned after completion: %+v", jobs)
			}
		})
	}
}

// TestRecoveredWithoutCheckpointRestarts covers the demotion path: a
// spooled spec with no usable particle state restarts from step zero,
// says so, and still completes. The resume.nbf claiming step 40 holds no
// particles, as a stateless job's does; a step count with no state
// behind it must not show up as a resume.
func TestRecoveredWithoutCheckpointRestarts(t *testing.T) {
	spool := t.TempDir()
	sp, err := NewSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	spec := shortSpec(60)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSpec("jlost", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PutResume("jlost", &frames.Frame{Meta: frames.Meta{Step: 40, MachineTime: 2.5}}); err != nil {
		t.Fatal(err)
	}

	svc, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Get("jlost")
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedFrom != 0 || st.Progress.Step != 0 || st.Progress.MachineTime != 0 {
		t.Fatalf("stateless job reports a resume: resumed_from %d, progress %+v", st.ResumedFrom, st.Progress)
	}
	events, unsub, err := svc.Subscribe("jlost")
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	svc.Start()
	defer shutdownService(t, svc)
	// The stream opens with the current snapshot and then counts up from
	// step 1; it never jumps back.
	for want := 0; want <= 2; want++ {
		if p := <-events; p.Step != want || p.Event != "" {
			t.Fatalf("progress event %d: %+v", want, p)
		}
	}
	waitUntil(t, "recovered job done", func() bool {
		st, err := svc.Get("jlost")
		return err == nil && st.State == StateDone
	})
	res, err := svc.Result("jlost")
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 60 {
		t.Fatalf("restarted job steps %d", res.Steps)
	}
}

// TestLegacyGobCheckpointIgnored leaves three spools as a daemon from
// before the chain became the checkpoint would: a garbage checkpoint.gob,
// a valid one (the root package's gob fixture), and a valid one beside a
// frame chain, each with the meta.json of that daemon claiming step 5.
// None is read — the first two jobs restart from zero, the third resumes
// from its chain's last frame — each gob is reported once, and the files
// go with the job directory when the job ends.
func TestLegacyGobCheckpointIgnored(t *testing.T) {
	spool := t.TempDir()
	sp, err := NewSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	spec := shortSpec(12)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := frames.Create(sp.FramesPath("jchain"), frames.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var machine float64
	var f frames.Frame
	for step := 1; step <= 3; step++ {
		machine += sim.Step().SimTime
		fillFrame(&f, sim, step, machine)
		if _, err := chain.Append(&f); err != nil {
			t.Fatal(err)
		}
	}
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	gob, err := os.ReadFile("../../testdata/checkpoint_v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range map[string][]byte{"jgarbage": []byte("garbage"), "jvalid": gob, "jchain": gob} {
		if err := sp.PutSpec(id, spec); err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(spool, id, "checkpoint.gob"), data, 0o644)
		os.WriteFile(filepath.Join(spool, id, "meta.json"), []byte(`{"step":5}`), 0o644)
	}

	var mu sync.Mutex
	var logged []string
	svc := startService(t, Options{Workers: 1, SpoolDir: spool, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
		t.Logf(format, args...)
	}})
	mu.Lock()
	startup := strings.Join(logged, "\n")
	mu.Unlock()
	for id, want := range map[string]int{"jgarbage": 0, "jvalid": 0, "jchain": 3} {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.ResumedFrom != want {
			t.Fatalf("job %s resumed from step %d, want %d", id, st.ResumedFrom, want)
		}
		if n := strings.Count(startup, "spool job "+id+": ignoring legacy gob checkpoint"); n != 1 {
			t.Fatalf("job %s: legacy gob reported %d times, want once:\n%s", id, n, startup)
		}
	}
	for _, id := range []string{"jgarbage", "jvalid", "jchain"} {
		waitUntil(t, id+" done", func() bool {
			st, err := svc.Get(id)
			return err == nil && st.State == StateDone
		})
		if _, err := os.Stat(filepath.Join(spool, id)); !os.IsNotExist(err) {
			t.Fatalf("job %s: spool directory survived the terminal state (%v)", id, err)
		}
	}
	// The two restarts and the chain resume are the same SPSA run.
	want, err := svc.Result("jgarbage")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"jvalid", "jchain"} {
		got, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.MachineTime != want.MachineTime || !reflect.DeepEqual(got.Bodies, want.Bodies) {
			t.Fatalf("job %s finished differently from the from-scratch run", id)
		}
	}
}

// TestStreamStateStrings pins the NDJSON wire format: states are
// lowercase strings, progress fields use snake_case keys.
func TestStreamStateStrings(t *testing.T) {
	data, err := json.Marshal(StreamEvent{ID: "j1", State: StateRunning, Progress: Progress{Step: 2, Steps: 5, MachineTime: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"state":"running"`, `"machine_time":0.25`, `"step":2`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire format missing %s: %s", want, data)
		}
	}
}
