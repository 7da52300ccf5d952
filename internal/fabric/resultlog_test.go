package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/recio"
	"repro/internal/service"
)

// putResults writes one result per key to a fresh log at path and closes it.
func putResults(t *testing.T, path string, keys ...string) {
	t.Helper()
	rl, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := rl.Put(k, []byte(`{"key":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
}

// readResult reads key's result back through the index.
func readResult(t *testing.T, rl *ResultLog, key string) string {
	t.Helper()
	sp, ok := rl.Lookup(key)
	if !ok {
		t.Fatalf("key %s not in the result log", key)
	}
	res, err := rl.Read(sp)
	if err != nil {
		t.Fatal(err)
	}
	return string(res)
}

// The result log's key index is the gateway's result cache: a miss on an
// empty log, a hit with the stored bytes after a Put.
func TestCachePutGet(t *testing.T) {
	rl, err := OpenResultLog(filepath.Join(t.TempDir(), "gw.journal.results"))
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if _, ok := rl.Lookup("missing"); ok {
		t.Fatal("hit on empty result log")
	}
	if _, err := rl.Put("k1", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if got := readResult(t, rl, "k1"); got != "r1" {
		t.Fatalf("k1 = %q, want r1", got)
	}
}

// Results are deterministic per key, so a repeat Put keeps the first
// record: the lookup still reads it and the log does not grow.
func TestCacheOverwrite(t *testing.T) {
	rl, err := OpenResultLog(filepath.Join(t.TempDir(), "gw.journal.results"))
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if _, err := rl.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	size := rl.Size()
	if _, err := rl.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := readResult(t, rl, "k"); got != "old" {
		t.Fatalf("k after repeat Put = %q, want the first record old", got)
	}
	if rl.Size() != size {
		t.Fatalf("log grew %d -> %d bytes on a repeat Put, want one record per key", size, rl.Size())
	}
}

// One record per key: a second Put of a key returns the first record and
// writes nothing, and a reopen indexes exactly what was written.
func TestResultLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal.results")
	rl, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	sp1, err := rl.Put("k1", []byte(`{"steps":3}`))
	if err != nil {
		t.Fatal(err)
	}
	size := rl.Size()
	if sp, err := rl.Put("k1", []byte(`{"other":1}`)); err != nil || sp != sp1 || rl.Size() != size {
		t.Fatalf("repeat Put = %+v, %v, size %d -> %d; want the first record and no write", sp, err, size, rl.Size())
	}
	if _, err := rl.Put("k2", nil); err != nil {
		t.Fatal(err)
	}
	rl.Close()

	rl, err = OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if got := readResult(t, rl, "k1"); got != `{"steps":3}` {
		t.Fatalf("k1 after reopen = %q", got)
	}
	if got := readResult(t, rl, "k2"); got != "" {
		t.Fatalf("k2 after reopen = %q, want empty", got)
	}
	if info, _ := os.Stat(path); rl.Size() != info.Size() {
		t.Fatalf("Size() = %d, file is %d bytes", rl.Size(), info.Size())
	}
}

// A gateway without a journal keeps its results in an unlinked file: the
// same code path, nothing left on disk.
func TestResultLogUnlinkedWithoutJournal(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	rl, err := OpenResultLog("")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if _, err := rl.Put("k", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got := readResult(t, rl, "k"); got != `{}` {
		t.Fatalf("read back %q", got)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("unlinked result log left %d file(s) behind", len(left))
	}
}

// A crash mid-append leaves a torn record at the tail; reopen keeps every
// complete record, truncates the rest, and appends cleanly after it.
func TestResultLogTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal.results")
	putResults(t, path, "k1", "k2")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := recio.Append(nil, rrecResult, append([]byte{2}, `k3{"key":"k3"}`...))
	for cut := 1; cut < len(rec); cut += 3 {
		if err := os.WriteFile(path, append(append([]byte(nil), full...), rec[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := OpenResultLog(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if rl.Size() != int64(len(full)) {
			t.Fatalf("cut %d: size after reopen = %d, want truncated to %d", cut, rl.Size(), len(full))
		}
		if _, ok := rl.Lookup("k3"); ok {
			t.Fatalf("cut %d: torn record indexed", cut)
		}
		if _, err := rl.Put("k4", []byte(`{"key":"k4"}`)); err != nil {
			t.Fatal(err)
		}
		rl.Close()
		rl, err = OpenResultLog(path)
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		for _, k := range []string{"k1", "k2", "k4"} {
			if got := readResult(t, rl, k); got != `{"key":"`+k+`"}` {
				t.Fatalf("cut %d: %s = %q", cut, k, got)
			}
		}
		rl.Close()
	}
}

// A flipped bit inside a record that has records behind it is no crash:
// the open is refused, naming the offset, and the file is left untouched.
func TestResultLogMidFileCorruptionRefusesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal.results")
	putResults(t, path, "k1", "k2", "k3")
	good, _ := os.ReadFile(path)
	flipped := append([]byte(nil), good...)
	flipped[len(resultLogMagic)+recio.HeaderLen+4] ^= 0x40 // inside k1's record body
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := OpenResultLog(path)
	if err == nil {
		rl.Close()
		t.Fatal("open succeeded over a corrupt record")
	}
	if !strings.Contains(err.Error(), "offset 4 ") {
		t.Errorf("error %q does not name the bad record's offset", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, flipped) {
		t.Errorf("failed open changed the file: %d bytes, was %d", len(after), len(flipped))
	}
	// The gateway refuses to start on it rather than serve from half a log.
	if _, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", JournalPath: strings.TrimSuffix(path, ".results"), Logf: t.Logf}); err == nil {
		t.Fatal("gateway started over a corrupt result log")
	}
}

// getResult fetches /result over HTTP, requiring a 200.
func getResult(t *testing.T, g *Gateway, id string) []byte {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result of %s: %d %s", id, resp.StatusCode, body)
	}
	return body
}

// copyFile copies what is on disk now — all a SIGKILL leaves behind.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// An unclean restart — the journal and result log exactly as a killed
// process left them, no Close — serves every /result byte for byte, the
// cache hit and the compacted-away jobs included.
func TestResultLogUncleanRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	opt := Options{ControlAddr: "127.0.0.1:0", JournalPath: filepath.Join(dir, "gw.journal"),
		LeaseTTL: time.Minute, TenantRate: 1e6, TenantBurst: 1e6, Logf: t.Logf}
	gw, err := NewGateway(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.mu.Lock()
	gw.journal.compactBytes = 4 << 10 // compact several times on the way
	gw.mu.Unlock()
	startFakeShard(t, gw, "u", 2, nil, paddedResult(3000))
	ids := runJobs(t, gw, 0, 12)
	hit, err := gw.Submit("t", quickSpec(2, 1))
	if err != nil || !hit.Cached {
		t.Fatalf("repeat submission not a cache hit: %+v err=%v", hit, err)
	}
	ids = append(ids, hit.ID)
	want := make(map[string][]byte)
	for _, id := range ids {
		want[id] = getResult(t, gw, id)
	}

	crash := filepath.Join(t.TempDir(), "gw.journal")
	copyFile(t, opt.JournalPath, crash)
	copyFile(t, opt.JournalPath+".results", crash+".results")
	opt.JournalPath = crash
	gw2, err := NewGateway(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	for _, id := range ids {
		if got := getResult(t, gw2, id); !bytes.Equal(got, want[id]) {
			t.Fatalf("job %s: /result after restart differs (%d bytes, was %d)", id, len(got), len(want[id]))
		}
	}
	if n := gw2.Metrics().JobsPending.Load(); n != 0 {
		t.Fatalf("restart re-queued %d job(s) whose results are in the log", n)
	}
}

// A done record whose key the log does not hold re-queues the job — a
// re-run is correct, results being deterministic — and never serves empty
// bytes; jobs that shared the key share the one re-run.
func TestResultLogMissingKeyRequeuesJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	d1 := testJournalJob("d1", "done", 0, "")
	c1 := testJournalJob("c1", "done", 0, "")
	c1.Key, c1.Cached = d1.Key, true
	kept := testJournalJob("kept", "done", 0, "")
	for _, rec := range []*journalJob{d1, c1, kept} {
		if err := jl.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	putResults(t, path+".results", kept.Key) // d1's result never reached the log

	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", JournalPath: path, LeaseTTL: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if st, _ := gw.Get("kept"); st.State != service.StateDone {
		t.Fatalf("job with a logged result replayed as %s", st.State)
	}
	for _, id := range []string{"d1", "c1"} {
		st, _ := gw.Get(id)
		if st.State.Terminal() {
			t.Fatalf("job %s without a logged result replayed as %s, want re-queued", id, st.State)
		}
		if _, err := gw.Result(id); !errors.Is(err, ErrNotDone) {
			t.Fatalf("Result(%s) before the re-run = %v, want ErrNotDone", id, err)
		}
	}
	if st, _ := gw.Get("c1"); !st.Coalesced {
		t.Fatal("second job of the lost key did not coalesce onto the first's re-run")
	}
	if n := gw.Metrics().JobsPending.Load(); n != 1 {
		t.Fatalf("pending = %d, want the one re-run", n)
	}

	startFakeShard(t, gw, "r", 1, nil, func(string) []byte { return []byte(`{"rerun":true}`) })
	for _, id := range []string{"d1", "c1"} {
		if st := awaitTerminal(t, gw, id); st.State != service.StateDone {
			t.Fatalf("re-run of %s finished %s", id, st.State)
		}
		if res, err := gw.Result(id); err != nil || string(res) != `{"rerun":true}` {
			t.Fatalf("Result(%s) after the re-run = %q, %v", id, res, err)
		}
	}
	if got := gw.Metrics().Routed.Total(); got != 1 {
		t.Fatalf("routed %d jobs, want one re-run for the shared key", got)
	}
}

// A journal written before the result log, with done results inline,
// restores every result and moves it into the log once per key; records
// written from then on carry none, and a second restart neither re-runs
// nor re-appends anything.
func TestResultLogMigratesLegacyInlineResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	writeRestoreJournal(t, path) // d1 and its cache hit c1 carry {"steps":3} inline
	for round := 0; round < 2; round++ {
		gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", JournalPath: path, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"d1", "c1"} {
			if res, err := gw.Result(id); err != nil || string(res) != `{"steps":3}` {
				t.Fatalf("round %d: Result(%s) = %q, %v", round, id, res, err)
			}
		}
		gw.mu.Lock()
		logged := gw.results.Size()
		if err := gw.journal.Compact(gw.snapshotLocked()); err != nil {
			t.Fatal(err)
		}
		gw.mu.Unlock()
		if want := int64(len(resultLogMagic) + recio.HeaderLen + 1 + len("k-d1") + len(`{"steps":3}`) + recio.CRCLen); logged != want {
			t.Fatalf("round %d: result log is %d bytes, want %d (one record for the shared key)", round, logged, want)
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		journal, _ := os.ReadFile(path)
		if bytes.Contains(journal, []byte(`"result"`)) {
			t.Fatalf("round %d: compacted journal still carries a result body", round)
		}
	}
}

// An append the result log refuses — injected through recio's fault
// seam — keeps that one result in memory and logs it: the job is
// served, the log is rolled back, and the next result lands in the log.
func TestResultLogAppendFailureKeepsResultInMemory(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", JournalPath: filepath.Join(t.TempDir(), "gw.journal"),
		LeaseTTL: time.Minute, Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.mu.Lock()
	gw.results.file.Inject(&recio.Fault{FailOn: 1, Partial: 9})
	size := gw.results.Size()
	gw.mu.Unlock()

	startFakeShard(t, gw, "f", 1, nil, paddedResult(100))
	ids := runJobs(t, gw, 0, 2)
	for _, id := range ids {
		res, err := gw.Result(id)
		if err != nil || !json.Valid(res) || !bytes.Contains(res, []byte(id)) {
			t.Fatalf("Result(%s) = %.40q, %v", id, res, err)
		}
	}
	gw.mu.Lock()
	first, second := gw.jobs[ids[0]].result, gw.jobs[ids[1]].result
	grown := gw.results.Size() - size
	gw.mu.Unlock()
	if first.mem == nil || second.mem != nil || second.span.n != grown {
		t.Fatalf("first job in memory %v, second in memory %v, log grew %d for a %d-byte record; want only the refused one in memory",
			first.mem != nil, second.mem != nil, grown, second.span.n)
	}
	mu.Lock()
	defer mu.Unlock()
	var found bool
	for _, line := range logged {
		found = found || (strings.Contains(line, ids[0]) && strings.Contains(line, "kept in memory"))
	}
	if !found {
		t.Fatalf("refused append not logged for %s: %q", ids[0], logged)
	}
}
