package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wiregolden"
)

// writeRestoreJournal builds a journal holding one job in every place a
// gateway job can be — queued in two tenants under out-of-order finish
// tags, leased, recovering, following a live leader, following a
// terminal one — and every terminal flavour, around a compaction
// snapshot with a keyframe, then admissions on top of it (one by a
// tenant the snapshot has never seen).
func writeRestoreJournal(t *testing.T, path string) {
	t.Helper()
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Unix(1700000000, 0).UTC()
	job := func(id, tenant, state string, tag float64, edit func(*journalJob)) *journalJob {
		rec := testJournalJob(id, state, 0, "")
		rec.Tenant, rec.FinishTag = tenant, tag
		created = created.Add(time.Second)
		rec.Created = created
		if edit != nil {
			edit(rec)
		}
		return rec
	}
	q1 := job("q1", "a", "queued", 2.5, nil)
	q2 := job("q2", "b", "queued", 1.25, nil)
	q3 := job("q3", "a", "queued", 1.5, nil)
	l1 := job("l1", "a", "running", 0.5, func(r *journalJob) {
		r.Lease, r.Shard, r.LocalID, r.KeyframeStep, r.FramesAddr = 7, "s0", "local-l1", 4, "127.0.0.1:1"
	})
	r1 := job("r1", "b", "running", 0.75, func(r *journalJob) { r.Recovering, r.Retries = true, 1 })
	f1 := job("f1", "b", "running", 0, func(r *journalJob) { r.Key, r.Coalesced, r.LeaderID = l1.Key, true, "l1" })
	d1 := job("d1", "a", "done", 0.25, func(r *journalJob) { r.Result, r.LocalID = json.RawMessage(`{"steps":3}`), "local-d1" })
	f2 := job("f2", "b", "queued", 0, func(r *journalJob) { r.Key, r.Coalesced, r.LeaderID = d1.Key, true, "d1" })
	c1 := job("c1", "b", "done", 0, func(r *journalJob) { r.Key, r.Cached, r.Result = d1.Key, true, d1.Result })
	x1 := job("x1", "a", "canceled", 0.3, func(r *journalJob) { r.CancelRequested = true })
	e1 := job("e1", "b", "failed", 0.4, func(r *journalJob) { r.Error, r.Retries = "re-routed 9 times without completing", 9 })
	snapJobs := []*journalJob{q1, q2, l1, r1, f1, d1, f2, c1, x1, e1}
	snap := &journalSnapshot{
		Keyframes: []journalKeyframe{{ID: "l1", Step: 4, Data: []byte("frame4")}},
		Tenants: []journalTenant{
			{Name: "a", Weight: 2, Rate: 10, Burst: 20, Tokens: 3.5, LastFinish: 2.5},
			{Name: "b", Weight: 0, Rate: 5, Burst: 8, Tokens: 0.5, LastFinish: 1.25},
		},
		VTime:     0.75,
		NextLease: 7,
	}
	for _, rec := range snapJobs {
		if err := jl.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
		snap.Order = append(snap.Order, rec.ID)
		snap.Jobs = append(snap.Jobs, *rec)
	}
	if err := jl.Compact(snap); err != nil {
		t.Fatal(err)
	}
	// On top of the snapshot: two admissions by known tenants (b's bucket
	// cannot cover its one), one by a new tenant, a second lease, a newer
	// keyframe.
	steps := []func() error{
		func() error { return jl.AppendJob(q3) },
		func() error { return jl.AppendJob(job("q4", "b", "queued", 3.5, nil)) },
		func() error { return jl.AppendJob(job("q5", "c", "queued", 3.25, nil)) },
		func() error { return jl.AppendKeyframe("l1", 8, []byte("frame8")) },
		func() error {
			return jl.AppendJob(job("l2", "a", "running", 3, func(r *journalJob) { r.Lease, r.Shard = 9, "s1" }))
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("journal step %d: %v", i, err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSnapshotRoundTrip pins journal replay: a gateway opened on a
// journal with a job in every place must index them — snapshot, gauges,
// reconciliation set, in-flight leaders, per-tenant queue order and
// bucket levels — exactly as the golden recorded before the live
// handlers and replay shared one set of place functions.
func TestRestoreSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	writeRestoreJournal(t, path)
	g, err := NewGateway(Options{JournalPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	g.mu.Lock()
	defer g.mu.Unlock()
	out, err := json.MarshalIndent(g.snapshotLocked(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(out)
	fmt.Fprintf(&buf, "\njobs_pending=%d pending=%d jobs_leased=%d recovering=%d inflight=%d\n",
		g.metrics.JobsPending.Load(), g.pending, g.metrics.JobsLeased.Load(), len(g.recovering), len(g.inflight))
	ids := func(jobs map[string]*GwJob) []string {
		var out []string
		for _, j := range jobs {
			out = append(out, j.ID)
		}
		sort.Strings(out)
		return out
	}
	fmt.Fprintf(&buf, "recovering=%v inflight=%v\n", ids(g.recovering), ids(g.inflight))
	names := make([]string, 0, len(g.tenants))
	for name := range g.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tn := g.tenants[name]
		var queue []string
		for _, j := range tn.queue {
			queue = append(queue, j.ID)
		}
		fmt.Fprintf(&buf, "tenant %s: queue=%v tokens=%g\n", name, queue, tn.bucket.tokens)
	}
	wiregolden.File(t, "testdata/restore.golden", buf.Bytes())
}

// A live replayed job whose spec does not decode must be failed, durably
// — not queued with a zero spec for a shard to choke on — and take the
// followers riding on it along.
func TestRestoreFailsUndecodableSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := testJournalJob("bad", "queued", 0, "")
	bad.SpecJSON = json.RawMessage(`{"n":"many"}`)
	foll := testJournalJob("foll", "queued", 0, "")
	foll.Key, foll.Coalesced, foll.LeaderID = bad.Key, true, "bad"
	for _, rec := range []*journalJob{bad, foll, testJournalJob("ok", "queued", 0, "")} {
		if err := jl.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := NewGateway(Options{JournalPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"bad", "foll"} {
		st, err := g.Get(id)
		if err != nil || st.State != service.StateFailed || !strings.Contains(st.Error, "decoding spec") {
			t.Fatalf("job %s after replay: %+v err=%v; want failed with the decode error", id, st, err)
		}
	}
	if st, _ := g.Get("ok"); st.State != service.StateQueued {
		t.Fatalf("decodable job replayed as %s, want queued", st.State)
	}
	if failed, pending := g.Metrics().JobsFailed.Load(), g.Metrics().JobsPending.Load(); failed != 2 || pending != 1 {
		t.Fatalf("jobs_failed=%d pending=%d, want 2 and 1", failed, pending)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	jl, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if rec := st.Jobs["bad"]; rec.State != service.StateFailed || rec.Error == "" {
		t.Fatalf("failure not journaled: %+v", rec)
	}
}
