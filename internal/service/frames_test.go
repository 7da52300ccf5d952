package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	barneshut "repro"
	"repro/internal/frames"
)

// referenceRun executes the spec uninterrupted through the library,
// returning the final bodies and the machine-time accumulator exactly
// as the worker computes it (sum of per-step SimTime, in step order).
func referenceRun(t *testing.T, spec JobSpec) ([]barneshut.Particle, float64) {
	t.Helper()
	ref := spec
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	var machine float64
	for i := 0; i < ref.Steps; i++ {
		machine += sim.Step().SimTime
	}
	return sim.Bodies(), machine
}

// killMidJob shuts the service down mid-job and returns the step the job
// had reached. A framed job's chain is its checkpoint: nothing but the
// spec may be in its spool directory, before or after the shutdown.
func killMidJob(t *testing.T, svc *Service, spool, id string) int {
	t.Helper()
	shutdownService(t, svc)
	st, err := svc.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.Step == 0 {
		t.Fatal("job made no progress before the kill")
	}
	if got := spoolFiles(t, spool, id); !st.State.Terminal() && (len(got) != 1 || got[0] != "spec.json") {
		t.Fatalf("framed job's spool directory holds %v, want only spec.json", got)
	}
	return st.Progress.Step
}

// spoolFiles lists a job's spool directory.
func spoolFiles(t *testing.T, spool, id string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(spool, id))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFramesResumeGoldenSPSA is the frame store's acceptance test: a job
// killed mid-run resumes from the last intact frame of its chain — the
// only state it left behind — and replays to a final state bit-identical
// to an uninterrupted run, including the machine-time accumulator.
//
// SPSA is the bitwise scheme: its decomposition is a pure function of
// particle positions. SPDA/DPDA carry measured-load state a restart
// resets; TestFramesResumePhysical covers them.
func TestFramesResumeGoldenSPSA(t *testing.T) {
	spool := t.TempDir()
	spec := JobSpec{
		Dist: "plummer", N: 200, Processors: 4, Scheme: "spsa",
		Machine: "ideal", Steps: 120, Eps: 0.05, DT: 0.01, Seed: 7,
		FramesKeyEvery: 8,
	}
	refBodies, refMachine := referenceRun(t, spec)

	svcA, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svcA.Start()
	st, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job past step 30", func() bool {
		s, err := svcA.Get(st.ID)
		return err == nil && s.Progress.Step >= 30
	})
	killed := killMidJob(t, svcA, spool, st.ID)
	if killed >= spec.Steps {
		t.Fatalf("job finished (step %d) before the kill", killed)
	}

	svcB, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := svcB.Get(st.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	// The chain holds every completed step, so nothing is re-run.
	if rec.ResumedFrom != killed || rec.Progress.Step != killed {
		t.Fatalf("job resumed from step %d (progress %d), want the chain's last step %d", rec.ResumedFrom, rec.Progress.Step, killed)
	}

	// The worker must announce the resume point before its first step.
	events, unsub, err := svcB.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	svcB.Start()
	defer shutdownService(t, svcB)
	sawRecovery := false
	for p := range events {
		if p.Event == "recovery" {
			if p.ResumedStep < 1 || p.ResumedStep != p.Step {
				t.Fatalf("recovery event malformed: %+v", p)
			}
			sawRecovery = true
		}
		if p.Step >= spec.Steps {
			break
		}
	}
	if !sawRecovery {
		t.Fatal("no recovery event on the progress stream")
	}
	waitUntil(t, "resumed job done", func() bool {
		s, err := svcB.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	res, err := svcB.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != spec.Steps {
		t.Fatalf("resumed job ran %d steps, want %d", res.Steps, spec.Steps)
	}
	// Bodies and the simulated clock replay bit-exactly, resume or not.
	if res.MachineTime != refMachine {
		t.Fatalf("machine time after frame resume: %.17g, want %.17g", res.MachineTime, refMachine)
	}
	for i := range refBodies {
		if res.Bodies[i] != refBodies[i] {
			t.Fatalf("body %d differs after frame resume", i)
		}
	}
}

// TestFramesResumePhysical covers SPDA and DPDA: their decompositions
// adapt to measured loads, so a resume is physically continuous (same
// particles, same clocks) but not bitwise. The contract here is that
// the kill-and-restart flow still completes from the frame chain.
func TestFramesResumePhysical(t *testing.T) {
	for _, scheme := range []string{"spda", "dpda"} {
		t.Run(scheme, func(t *testing.T) {
			spool := t.TempDir()
			spec := JobSpec{
				Dist: "plummer", N: 150, Processors: 4, Scheme: scheme,
				Machine: "ideal", Steps: 60, Eps: 0.05, DT: 0.01, Seed: 11,
				FramesKeyEvery: 5,
			}
			svcA, err := New(Options{Workers: 1, SpoolDir: spool, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			svcA.Start()
			st, err := svcA.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "job past step 10", func() bool {
				s, err := svcA.Get(st.ID)
				return err == nil && s.Progress.Step >= 10
			})
			killed := killMidJob(t, svcA, spool, st.ID)
			if killed >= spec.Steps {
				t.Skip("job finished before the kill; nothing to resume")
			}

			svc := startService(t, Options{Workers: 1, SpoolDir: spool})
			rec, err := svc.Get(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if rec.ResumedFrom != killed {
				t.Fatalf("resumed from step %d, want the chain's last step %d: %+v", rec.ResumedFrom, killed, rec)
			}
			waitUntil(t, "resumed job done", func() bool {
				s, err := svc.Get(st.ID)
				return err == nil && s.State == StateDone
			})
			res, err := svc.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != spec.Steps || res.KineticEnergy <= 0 ||
				math.IsNaN(res.KineticEnergy) {
				t.Fatalf("resumed %s job not physically sound: %+v", scheme, res)
			}
		})
	}
}

// TestFramesEndpoint exercises the replay API end to end: NDJSON
// tail-follow of a running job, stride/from replay of the finished
// chain, the raw binary encoding, and the error paths.
func TestFramesEndpoint(t *testing.T) {
	spool := t.TempDir()
	svc := startService(t, Options{Workers: 1, SpoolDir: spool})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := shortSpec(40)
	spec.FramesKeyEvery = 8
	_, st := postJob(t, ts, spec)

	// Tail-follow while the job runs: the stream must deliver every step
	// exactly once, in order, and end when the job does.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/frames?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	next := int64(1)
	for sc.Scan() {
		var ev frameEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if ev.Step != next {
			t.Fatalf("step %d out of order (want %d)", ev.Step, next)
		}
		if ev.N != spec.N || len(ev.PosX) != spec.N || len(ev.ID) != spec.N {
			t.Fatalf("frame %d: columns missing or short: n=%d", ev.Step, ev.N)
		}
		if ev.MachineTime <= 0 {
			t.Fatalf("frame %d: no machine time", ev.Step)
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != int64(spec.Steps)+1 {
		t.Fatalf("stream delivered %d frames, want %d", next-1, spec.Steps)
	}

	// Replay the finished chain with from/stride and meta-only fields.
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/frames?from=10&stride=5&fields=meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var steps []int64
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 1<<20), 1<<22)
	for sc2.Scan() {
		var ev frameEvent
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if len(ev.PosX) != 0 {
			t.Fatal("fields=meta must omit particle columns")
		}
		steps = append(steps, ev.Step)
	}
	want := []int64{10, 15, 20, 25, 30, 35, 40}
	if len(steps) != len(want) {
		t.Fatalf("strided steps %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("strided steps %v, want %v", steps, want)
		}
	}

	// Binary mode: magic, then one self-contained keyframe record per
	// frame, each decodable in isolation.
	req, err := http.NewRequest("GET", ts.URL+"/api/v1/jobs/"+st.ID+"/frames?from=38", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/octet-stream")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var raw []byte
	buf := make([]byte, 32<<10)
	for {
		n, err := resp3.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	if string(raw[:4]) != string(frames.Magic()) {
		t.Fatalf("binary stream magic %q", raw[:4])
	}
	off := 4
	var got []int64
	for off < len(raw) {
		bodyLen := int(binary.LittleEndian.Uint32(raw[off:]))
		recLen := 4 + 1 + bodyLen + 4
		f, err := frames.DecodeKeyframe(raw[off : off+recLen])
		if err != nil {
			t.Fatalf("binary record at %d: %v", off, err)
		}
		got = append(got, f.Meta.Step)
		if f.Parts.Len() != spec.N {
			t.Fatalf("binary frame %d has %d particles", f.Meta.Step, f.Parts.Len())
		}
		off += recLen
	}
	if len(got) != 3 || got[0] != 38 || got[2] != 40 {
		t.Fatalf("binary steps %v, want [38 39 40]", got)
	}

	// Error paths.
	if resp, err := http.Get(ts.URL + "/api/v1/jobs/nope/frames"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/frames?stride=0"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stride: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestFramesTailFollowRightAfterSubmit is the regression test for the
// /frames open race: a client that tail-follows a job the instant it was
// accepted — before a worker has created the chain file, or between the
// file's creation and its magic — must get the stream, never 404 or 500.
// The second job of each round is still queued behind the first when its
// follower connects. A job that records no frames is refused at once.
func TestFramesTailFollowRightAfterSubmit(t *testing.T) {
	svc := startService(t, Options{Workers: 1, QueueDepth: 4, SpoolDir: t.TempDir()})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	follow := func(id string, steps int) {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/frames?fields=meta")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Errorf("job %s: tail-follow answered %d %q", id, resp.StatusCode, resp.Header.Get("Content-Type"))
			return
		}
		next := int64(1)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev frameEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Step != next {
				t.Errorf("job %s: line %q (err %v), want step %d", id, sc.Bytes(), err, next)
				return
			}
			next++
		}
		if next != int64(steps)+1 {
			t.Errorf("job %s: stream delivered %d frames, want %d", id, next-1, steps)
		}
	}
	for round := 0; round < 25; round++ {
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			spec := shortSpec(6)
			spec.Seed = int64(10*round + k)
			resp, st := postJob(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d: submit answered %d", round, resp.StatusCode)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				follow(st.ID, spec.Steps)
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	spec := longSpec()
	spec.FramesKeyEvery = -1
	_, st := postJob(t, ts, spec)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/frames")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("frameless running job: tail-follow answered %d, want 404", resp.StatusCode)
	}
	svc.Cancel(st.ID)
}

// TestFramesCompactionBudget submits a job whose chain overflows a tiny
// byte budget and asserts the worker compacts it back under the budget
// while the metrics surface both the compaction count and the gauge.
func TestFramesCompactionBudget(t *testing.T) {
	spool := t.TempDir()
	budget := int64(48 << 10)
	svc := startService(t, Options{Workers: 1, SpoolDir: spool, FramesMaxBytes: budget})
	spec := shortSpec(300)
	spec.FramesKeyEvery = 4
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job done", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	if svc.Metrics().FramesCompactions.Load() == 0 {
		t.Fatal("chain never compacted")
	}
	// The final chain must replay clean and stay near the budget (the
	// clean-close index trailer lands after the last compaction).
	path := svc.spool.FramesPath(st.ID)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	groupSlack := int64(16 << 10)
	if info.Size() > budget+groupSlack {
		t.Fatalf("chain %d bytes, budget %d", info.Size(), budget)
	}
	r, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var f frames.Frame
	last := int64(0)
	for {
		if err := r.Next(&f); err != nil {
			break
		}
		if f.Meta.Step <= last {
			t.Fatalf("steps not increasing after compaction: %d after %d", f.Meta.Step, last)
		}
		last = f.Meta.Step
	}
	if !r.CleanEOF() || last != int64(spec.Steps) {
		t.Fatalf("compacted chain tail: clean=%v last=%d", r.CleanEOF(), last)
	}
	render := svc.Metrics().Render()
	for _, want := range []string{"nbodyd_frames_bytes", "nbodyd_frames_appended_total", "nbodyd_frames_compactions_total"} {
		if !containsMetric(render, want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// TestSubmitSeededResumesFromKeyframe replicates keyframes through the
// frame hook (as the fabric agent does) and seeds a second job from the
// last one: the seeded job must resume at the keyframe's step and — on
// the bitwise SPSA scheme — finish with the same final state as the
// donor.
func TestSubmitSeededResumesFromKeyframe(t *testing.T) {
	spool := t.TempDir()
	svc := startService(t, Options{Workers: 1, SpoolDir: spool})

	var mu sync.Mutex
	var lastStep int64
	var lastKey []byte
	svc.SetFrameHook(func(jobID string, step int64, rec []byte) {
		mu.Lock()
		lastStep, lastKey = step, rec
		mu.Unlock()
	})

	spec := JobSpec{
		Dist: "plummer", N: 160, Processors: 4, Scheme: "spsa",
		Machine: "ideal", Steps: 50, Eps: 0.05, DT: 0.01, Seed: 9,
		FramesKeyEvery: 10,
	}
	donor, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "donor done", func() bool {
		s, err := svc.Get(donor.ID)
		return err == nil && s.State == StateDone
	})
	donorRes, err := svc.Result(donor.ID)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	step, key := lastStep, lastKey
	mu.Unlock()
	if step < 1 || len(key) == 0 {
		t.Fatalf("frame hook never fired (step %d)", step)
	}

	seeded, err := svc.SubmitSeeded(spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.ResumedFrom != int(step) {
		t.Fatalf("seeded job resumed from %d, want %d", seeded.ResumedFrom, step)
	}
	waitUntil(t, "seeded job done", func() bool {
		s, err := svc.Get(seeded.ID)
		return err == nil && s.State == StateDone
	})
	res, err := svc.Result(seeded.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != spec.Steps {
		t.Fatalf("seeded job ran %d steps", res.Steps)
	}
	for i := range donorRes.Bodies {
		if res.Bodies[i] != donorRes.Bodies[i] {
			t.Fatalf("body %d differs between donor and seeded run", i)
		}
	}
	if res.MachineTime != donorRes.MachineTime {
		t.Fatalf("seeded machine time %.17g, donor %.17g", res.MachineTime, donorRes.MachineTime)
	}
	if svc.Metrics().FramesSeeded.Load() != 1 {
		t.Fatalf("seeded counter %d", svc.Metrics().FramesSeeded.Load())
	}

	// A corrupt keyframe degrades to a from-scratch run, never an error.
	bad := append([]byte(nil), key...)
	bad[len(bad)/2] ^= 0xFF
	st, err := svc.SubmitSeeded(spec, bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResumedFrom != 0 {
		t.Fatalf("corrupt seed resumed from %d", st.ResumedFrom)
	}
	waitUntil(t, "fallback job done", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateDone
	})
}

// TestFrameHookRecordsAreCopies keeps every record the frame hook receives
// until the job is done. The writer appends every frame into one reused
// buffer, so a record handed over without a copy would by then hold a
// later frame.
func TestFrameHookRecordsAreCopies(t *testing.T) {
	svc := startService(t, Options{Workers: 1, SpoolDir: t.TempDir()})
	var mu sync.Mutex
	recs := map[int64][]byte{}
	svc.SetFrameHook(func(jobID string, step int64, rec []byte) {
		mu.Lock()
		recs[step] = rec
		mu.Unlock()
	})
	st, err := svc.Submit(JobSpec{
		Dist: "plummer", N: 120, Processors: 4, Scheme: "spsa",
		Machine: "ideal", Steps: 12, Eps: 0.05, DT: 0.01, Seed: 4,
		FramesKeyEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job done", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	mu.Lock()
	defer mu.Unlock()
	if len(recs) < 4 {
		t.Fatalf("frame hook saw %d keyframes of a 12-step job keyframed every 3", len(recs))
	}
	for step, rec := range recs {
		f, err := frames.DecodeKeyframe(rec)
		if err != nil {
			t.Fatalf("step %d: retained record: %v", step, err)
		}
		if f.Meta.Step != step {
			t.Fatalf("record retained for step %d now holds step %d", step, f.Meta.Step)
		}
	}
}

// shutdownService drains the pool like a daemon exit (workers write
// their resume points and stop).
func shutdownService(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// containsMetric reports whether the exposition has a sample line for
// the metric name.
func containsMetric(render, name string) bool {
	for _, line := range strings.Split(render, "\n") {
		if len(line) > len(name) && line[:len(name)] == name && line[len(name)] == ' ' {
			return true
		}
	}
	return false
}
