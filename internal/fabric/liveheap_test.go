package fabric

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// startFakeShard registers a protocol-correct shard with no simulator
// behind it: it accepts every Assign, replicates keyframe for it (when
// set), and reports it done at once with the bytes result makes for the
// job. Gateway tests drive hundreds of jobs with results of any size
// through it in milliseconds.
func startFakeShard(t *testing.T, gw *Gateway, name string, capacity int32, keyframe []byte, result func(jobID string) []byte) net.Conn {
	t.Helper()
	conn, err := dialControl(gw.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	send := func(v any) bool {
		buf, err := encodeControl(v)
		if err != nil {
			t.Errorf("fake shard %s: encoding %T: %v", name, v, err)
			return false
		}
		_, err = conn.Write(buf)
		return err == nil
	}
	if !send(Hello{Name: name, Capacity: capacity}) {
		t.Fatal("fake shard hello failed")
	}
	go func() {
		for {
			kind, body, err := transport.ReadRaw(conn)
			if err != nil {
				return
			}
			if kind != transport.KindHost {
				continue
			}
			v, err := transport.Unmarshal(body)
			if err != nil {
				return
			}
			a, ok := v.(Assign)
			if !ok {
				continue
			}
			if !send(Accept{Lease: a.Lease, JobID: a.JobID, LocalID: "local-" + a.JobID}) ||
				(keyframe != nil && !send(Keyframe{Lease: a.Lease, JobID: a.JobID, Step: 1, Data: keyframe})) ||
				!send(Done{Lease: a.Lease, JobID: a.JobID, State: string(service.StateDone), ResultJSON: result(a.JobID)}) {
				return
			}
		}
	}()
	waitUntil(t, "fake shard "+name+" registered", func() bool {
		for _, s := range gw.Shards() {
			if s.Name == name {
				return true
			}
		}
		return false
	})
	return conn
}

// paddedResult is a distinct result of about size bytes per job.
func paddedResult(size int) func(string) []byte {
	return func(jobID string) []byte {
		return []byte(fmt.Sprintf(`{"job":%q,"pad":"%s"}`, jobID, bytes.Repeat([]byte("x"), size)))
	}
}

// runJobs submits n distinct quick jobs, seeds seed0+1 to seed0+n (seed
// 0 means the default, 1), and waits for every one to end.
func runJobs(t *testing.T, gw *Gateway, seed0, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		st, err := gw.Submit("t", quickSpec(2, int64(seed0+i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		if st := awaitTerminal(t, gw, id); st.State != service.StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
	}
	return ids
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle empties the sync.Pool victim caches
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGatewayLiveHeap holds a journaled gateway's memory to the jobs it
// tracks, not the bytes they produced: after N jobs with 50 KB results
// and 16 KB keyframes, live heap may grow by a few KB per terminal job —
// its status record and one result-log index entry — where keeping each
// result and keyframe would cost 66 KB.
func TestGatewayLiveHeap(t *testing.T) {
	const n, perJobLimit = 200, 4 << 10
	gw, err := NewGateway(Options{
		ControlAddr: "127.0.0.1:0",
		JournalPath: t.TempDir() + "/gw.journal",
		LeaseTTL:    time.Minute,
		TenantRate:  1e6,
		TenantBurst: 1e6,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	startFakeShard(t, gw, "heap", 4, bytes.Repeat([]byte("k"), 16<<10), paddedResult(50<<10))

	runJobs(t, gw, 0, 20) // warm-up: buffers, maps, the first compaction
	before := liveHeap()
	runJobs(t, gw, 1000, n)
	after := liveHeap()
	runtime.KeepAlive(gw)

	per := (float64(after) - float64(before)) / n
	t.Logf("live heap %.1f MB -> %.1f MB: %.0f B per terminal job", float64(before)/1e6, float64(after)/1e6, per)
	if per > perJobLimit {
		t.Errorf("live heap grew %.0f B per terminal job, want under %d", per, perJobLimit)
	}
}

// A terminal job has no use for its replicated keyframe — only a re-route
// resumes from one, and snapshots already skip them — so neither it nor
// a follower that finished with it may keep the bytes.
func TestTerminalJobsDropKeyframes(t *testing.T) {
	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", LeaseTTL: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// A leader with a coalesced follower, submitted before any shard can
	// take it, then three plain jobs.
	lead, err := gw.Submit("a", quickSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	foll, err := gw.Submit("b", quickSpec(2, 1))
	if err != nil || !foll.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v err=%v", foll, err)
	}
	startFakeShard(t, gw, "kf", 1, []byte("keyframe-bytes"), paddedResult(10))
	ids := append([]string{lead.ID, foll.ID}, runJobs(t, gw, 1, 3)...)
	awaitTerminal(t, gw, lead.ID)
	awaitTerminal(t, gw, foll.ID)
	if got := gw.Metrics().KeyframesReplicated.Load(); got != 4 {
		t.Fatalf("keyframes replicated = %d, want 4 (one per leased job)", got)
	}

	gw.mu.Lock()
	defer gw.mu.Unlock()
	for _, id := range ids {
		if j := gw.jobs[id]; len(j.keyframe) > 0 {
			t.Errorf("terminal job %s (%s) still holds %d keyframe bytes", id, j.State, len(j.keyframe))
		}
	}
}
