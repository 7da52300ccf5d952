package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
)

// shutdownSvc drains a standalone service with a bounded deadline.
func shutdownSvc(t *testing.T, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.Shutdown(ctx)
}

// Killing the shard that holds a job mid-run must not restart it from
// step zero: the dead shard has been replicating frame-store keyframes to
// the gateway, so the replacement shard resumes from the last replicated
// keyframe, the gateway status reports the resumed step, and the final
// result is bit-identical to an undisturbed run. A potential-mode job's
// keyframes are headers alone, and it resumes from them all the same.
func TestFleetHandoffResumesFromKeyframe(t *testing.T) {
	for _, mode := range []string{"force", "potential"} {
		t.Run(mode, func(t *testing.T) {
			spec := service.JobSpec{
				Dist: "plummer", N: 160, Processors: 2, Scheme: "spsa", Mode: mode,
				Machine: "ideal", Steps: 600, Eps: 0.05, DT: 0.01, Seed: 13,
			}
			handoffResumes(t, spec)
		})
	}
}

func handoffResumes(t *testing.T, spec service.JobSpec) {
	f := startFleetWith(t, 2, Options{LeaseTTL: 5 * time.Second}, 1, func(int) service.Options {
		return service.Options{
			Workers: 1, QueueDepth: 16, Logf: t.Logf,
			SpoolDir: t.TempDir(), FramesKeyEvery: 8,
		}
	})

	// Reference: the same spec run undisturbed on a standalone service.
	direct, err := service.New(service.Options{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	direct.Start()
	defer shutdownSvc(t, direct)
	dst, err := direct.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "reference job done", func() bool {
		s, _ := direct.Get(dst.ID)
		return s.State.Terminal()
	})
	dres, err := direct.Result(dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(dres)
	if err != nil {
		t.Fatal(err)
	}

	gst, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the run get past at least two replicated keyframes — the
	// latest then sits at step >= 8, so a resume from it cannot be a
	// from-scratch restart.
	var victim string
	waitUntil(t, "two keyframes replicated", func() bool {
		st, err := f.gw.Get(gst.ID)
		if err != nil || st.State.Terminal() {
			t.Fatalf("job not running while awaiting keyframes: %+v err=%v", st, err)
		}
		victim = st.Shard
		return victim != "" && f.gw.Metrics().KeyframesReplicated.Load() >= 2
	})

	for i := range f.stops {
		if victim == fmt.Sprintf("s%d", i) {
			f.killShard(t, i)
		}
	}

	fin := awaitTerminal(t, f.gw, gst.ID)
	if fin.State != service.StateDone {
		t.Fatalf("handed-off job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Retries < 1 {
		t.Fatalf("job retries = %d, want >= 1 after shard death", fin.Retries)
	}
	if fin.ResumedStep < 8 {
		t.Fatalf("resumed_step = %d, want >= 8 (replacement shard should resume from a replicated keyframe)", fin.ResumedStep)
	}
	if fin.Shard == victim {
		t.Fatalf("job still reports the dead shard %s", victim)
	}
	if got := f.gw.Metrics().JobsResumedFromFrame.Load(); got < 1 {
		t.Fatalf("nbodygw_jobs_resumed_from_frame_total = %d, want >= 1", got)
	}

	gres, err := f.gw.Result(gst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !samePhysics(t, refJSON, gres) {
		t.Fatalf("handed-off result differs from undisturbed run:\nref:     %.120s\nhandoff: %.120s", refJSON, gres)
	}
}

// A shard handed an Assign keyframe it cannot use (corrupt bytes) must
// degrade to a from-scratch run rather than refuse the lease: the job
// still completes, with resumed_step = 0.
func TestFleetHandoffDegradesOnBadKeyframe(t *testing.T) {
	f := startFleetWith(t, 1, Options{LeaseTTL: 5 * time.Second}, 1, func(int) service.Options {
		return service.Options{
			Workers: 1, QueueDepth: 16, Logf: t.Logf,
			SpoolDir: t.TempDir(), FramesKeyEvery: 8,
		}
	})

	// A routed job on a frames-enabled shard completes normally and
	// reports no resume: it was never re-routed.
	spec := quickSpec(30, 17)
	gst, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := awaitTerminal(t, f.gw, gst.ID)
	if fin.State != service.StateDone || fin.ResumedStep != 0 {
		t.Fatalf("undisturbed routed job: state %s resumed_step %d, want done/0", fin.State, fin.ResumedStep)
	}

	// The degrade path the agent relies on: a seeded submit with corrupt
	// bytes must start from scratch rather than refuse the job.
	st, err := f.svcs[0].SubmitSeeded(spec, []byte("not a frame record"))
	if err != nil {
		t.Fatalf("SubmitSeeded with corrupt seed refused: %v", err)
	}
	waitUntil(t, "degraded job done", func() bool {
		s, _ := f.svcs[0].Get(st.ID)
		return s.State.Terminal()
	})
	got, err := f.svcs[0].Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone {
		t.Fatalf("degraded job finished %s (%s), want done", got.State, got.Error)
	}
	if got.ResumedFrom != 0 {
		t.Fatalf("corrupt seed reported resumed_from = %d, want 0", got.ResumedFrom)
	}
}

// The gateway's frames action proxies the replay stream from the shard
// that ran the job — including after completion, when the lease is gone
// but the shard's frame chain survives its spool cleanup.
func TestGatewayFramesProxy(t *testing.T) {
	f := startFleetWith(t, 1, Options{LeaseTTL: 5 * time.Second}, 1, func(int) service.Options {
		return service.Options{
			Workers: 1, QueueDepth: 16, Logf: t.Logf,
			SpoolDir: t.TempDir(), FramesKeyEvery: 4,
		}
	})
	srv := httptest.NewServer(f.gw.Handler())
	defer srv.Close()

	spec := quickSpec(20, 29)
	gst, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := awaitTerminal(t, f.gw, gst.ID)
	if fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}

	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + gst.ID + "/frames?fields=meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("proxied frames status = %d (%s), want 200", resp.StatusCode, body)
	}
	var steps []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Step int `json:"step"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		steps = append(steps, line.Step)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(steps) != spec.Steps || steps[0] != 1 || steps[len(steps)-1] != spec.Steps {
		t.Fatalf("proxied replay steps = %v, want 1..%d", steps, spec.Steps)
	}

	// Unknown gateway job IDs 404 without touching any shard.
	resp2, err := srv.Client().Get(srv.URL + "/api/v1/jobs/nope/frames")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job frames status = %d, want 404", resp2.StatusCode)
	}
}

// A leased job belongs to the gateway's journal: its shard spools no
// spec for it, so a daemon restarted on the shard's spool recovers no
// job while the gateway re-routes it. The job's frame chain is still
// written.
func TestLeasedJobIsNotSpooled(t *testing.T) {
	spool := t.TempDir()
	f := startFleetWith(t, 1, Options{}, 1, func(int) service.Options {
		return service.Options{
			Workers: 1, QueueDepth: 4, Logf: t.Logf,
			SpoolDir: spool, FramesKeyEvery: 8,
		}
	})
	if _, err := f.gw.Submit("tenant-a", slowSpec(17)); err != nil {
		t.Fatal(err)
	}
	var local string
	waitUntil(t, "leased job past step 3", func() bool {
		for _, st := range f.svcs[0].Jobs() {
			if st.Progress.Step >= 3 {
				local = st.ID
				return true
			}
		}
		return false
	})
	restarted, err := service.New(service.Options{Workers: 1, QueueDepth: 4, Logf: t.Logf, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownSvc(t, restarted)
	if jobs := restarted.Jobs(); len(jobs) != 0 {
		t.Fatalf("a daemon restarted on the shard's spool recovered %d leased job(s), want none (%s at step %d)",
			len(jobs), jobs[0].ID, jobs[0].ResumedFrom)
	}
	if _, err := os.Stat(filepath.Join(spool, "frames", local+".nbf")); err != nil {
		t.Fatalf("the leased job's frame chain: %v", err)
	}
}
