package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/recio"
	"repro/internal/service"
)

func testJournalJob(id, state string, lease uint64, shard string) *journalJob {
	return &journalJob{
		ID: id, Tenant: "t", Key: "k-" + id,
		SpecJSON: json.RawMessage(`{"n":96}`),
		Created:  time.Unix(1700000000, 0).UTC(),
		State:    service.State(state), Lease: lease, Shard: shard,
		FinishTag: 1.5,
	}
}

// Append → close → reopen must replay last-write-wins per job, the
// newest keyframe, and the lease/WFQ clocks.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("fresh journal replayed state: %+v", st)
	}
	if err := jl.AppendJob(testJournalJob("g1", "queued", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(testJournalJob("g1", "running", 7, "s0")); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(testJournalJob("g2", "queued", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendKeyframe("g1", 8, []byte("frame8")); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendKeyframe("g1", 4, []byte("frame4")); err != nil { // out of order: ignored
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, st2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if st2 == nil {
		t.Fatal("reopen returned no state")
	}
	if got := st2.Jobs["g1"]; got == nil || got.State != "running" || got.Lease != 7 || got.Shard != "s0" {
		t.Fatalf("g1 last-write-wins replay = %+v", st2.Jobs["g1"])
	}
	if got := st2.Jobs["g2"]; got == nil || got.State != "queued" {
		t.Fatalf("g2 replay = %+v", st2.Jobs["g2"])
	}
	if want := []string{"g1", "g2"}; !reflect.DeepEqual(st2.Order, want) {
		t.Fatalf("order = %v, want %v", st2.Order, want)
	}
	if kf := st2.Keyframes["g1"]; kf == nil || kf.Step != 8 || string(kf.Data) != "frame8" {
		t.Fatalf("keyframe replay = %+v (out-of-order frame must not win)", st2.Keyframes["g1"])
	}
	if st2.NextLease != 7 {
		t.Fatalf("NextLease = %d, want 7", st2.NextLease)
	}
	if st2.VTime != 1.5 {
		t.Fatalf("VTime = %v, want 1.5", st2.VTime)
	}
	if st2.Admissions["t"] != 2 {
		t.Fatalf("Admissions[t] = %d, want 2 (distinct jobs since last snapshot)", st2.Admissions["t"])
	}
}

// A crash mid-append leaves a torn record at the tail; reopen must keep
// the valid prefix, truncate the tail, and accept new appends cleanly.
func TestJournalCrashMidAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(testJournalJob("g1", "done", 0, "")); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a second record written only half-way out.
	body, _ := json.Marshal(testJournalJob("g2", "queued", 0, ""))
	rec := recio.Append(nil, jrecJob, body)
	for cut := 1; cut < len(rec); cut += 7 {
		torn := append(append([]byte(nil), full...), rec[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		jl2, st, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen with %d torn bytes: %v", cut, err)
		}
		if st == nil || len(st.Jobs) != 1 || st.Jobs["g1"] == nil {
			t.Fatalf("cut %d: replay = %+v, want just g1", cut, st)
		}
		if jl2.Size() != int64(len(full)) {
			t.Fatalf("cut %d: size after reopen = %d, want truncated to %d", cut, jl2.Size(), len(full))
		}
		// The journal must keep working on the truncated tail.
		if err := jl2.AppendJob(testJournalJob("g3", "queued", 0, "")); err != nil {
			t.Fatal(err)
		}
		jl2.Close()
		_, st3, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st3 == nil || st3.Jobs["g3"] == nil || st3.Jobs["g2"] != nil {
			t.Fatalf("cut %d: post-truncate append replay = %+v", cut, st3)
		}
		// Reset for the next cut point.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A write that fails part-way (ENOSPC, EIO) must not poison the log: the
// partial record is rolled back, so every record appended before AND
// after the fault replays. Without the rollback the partial record's
// length prefix swallows the records behind it and reopen truncates them
// all away as a torn tail.
func TestJournalFailedWriteRollsBack(t *testing.T) {
	for _, partial := range []int{0, 3, 5, 40} {
		path := filepath.Join(t.TempDir(), "gw.journal")
		jl, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jl.file.Inject(&recio.Fault{FailOn: 3, Partial: partial})
		appendOK := func(id string) {
			t.Helper()
			if err := jl.AppendJob(testJournalJob(id, "queued", 0, "")); err != nil {
				t.Fatalf("partial %d: append %s: %v", partial, id, err)
			}
		}
		appendOK("g1")
		appendOK("g2")
		sizeBefore := jl.Size()
		if err := jl.AppendJob(testJournalJob("g3", "queued", 0, "")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("partial %d: faulted append returned %v, want ENOSPC", partial, err)
		}
		if jl.Size() != sizeBefore || jl.ShouldCompact() {
			t.Fatalf("partial %d: size %d (was %d), ShouldCompact %v after a rolled-back append",
				partial, jl.Size(), sizeBefore, jl.ShouldCompact())
		}
		appendOK("g4")
		appendOK("g5")
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		_, st, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"g1", "g2", "g4", "g5"}; st == nil || !reflect.DeepEqual(st.Order, want) {
			t.Fatalf("partial %d: replayed %+v, want jobs %v", partial, st, want)
		}
	}
}

// When the rollback fails as well, the journal stops appending (anything
// written behind the partial record would be lost) and asks for the
// compaction that replaces the file; records appended after it replay.
func TestJournalUnrecoverableTailForcesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.file.Inject(&recio.Fault{FailOn: 2, Partial: 7, Stuck: true})
	g1, g2 := testJournalJob("g1", "queued", 0, ""), testJournalJob("g2", "queued", 0, "")
	if err := jl.AppendJob(g1); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(g2); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted append returned %v, want ENOSPC", err)
	}
	if !jl.ShouldCompact() {
		t.Fatal("an unrecoverable tail must force a compaction")
	}
	if err := jl.AppendJob(testJournalJob("g3", "queued", 0, "")); err == nil {
		t.Fatal("append behind an unrecoverable tail must fail")
	}
	// The gateway snapshots its in-memory state, which has every job.
	snap := &journalSnapshot{Order: []string{"g1", "g2"}, Jobs: []journalJob{*g1, *g2}}
	if err := jl.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(testJournalJob("g4", "queued", 0, "")); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	_, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"g1", "g2", "g4"}; st == nil || !reflect.DeepEqual(st.Order, want) {
		t.Fatalf("replayed %+v, want jobs %v", st, want)
	}
}

// Compaction replaces the journal at its path: the mode stays what the
// open gave it, and an append after the rename lands in the file at the
// path, not in the inode the rename replaced.
func TestJournalCompactionKeepsModeAndPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	g1 := testJournalJob("g1", "queued", 0, "")
	if err := jl.AppendJob(g1); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Compact(&journalSnapshot{Order: []string{"g1"}, Jobs: []journalJob{*g1}}); err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendJob(testJournalJob("g2", "queued", 0, "")); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Mode() != before.Mode() || after.Size() != jl.Size() {
		t.Fatalf("after compaction and an append: mode %v (was %v), size at the path %d, journal size %d",
			after.Mode(), before.Mode(), after.Size(), jl.Size())
	}
	jl.Close()
	_, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"g1", "g2"}; st == nil || !reflect.DeepEqual(st.Order, want) {
		t.Fatalf("replayed %+v, want jobs %v", st, want)
	}
}

// A flipped bit inside a committed record must stop replay at the
// previous record instead of replaying garbage.
func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.AppendJob(testJournalJob("g1", "done", 0, ""))
	jl.AppendJob(testJournalJob("g2", "queued", 0, ""))
	jl.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-10] ^= 0x40 // inside g2's record body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jl2, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if st == nil || st.Jobs["g1"] == nil || st.Jobs["g2"] != nil {
		t.Fatalf("replay past corruption = %+v, want only g1", st)
	}
}

// Corruption that no crash explains must fail the open and leave the
// file alone: a flipped bit in the first of three records used to be
// taken for a torn tail, and the truncation behind it silently deleted
// the two acknowledged jobs that followed. So must a record that frames
// correctly but does not decode.
func TestJournalMidFileCorruptionRefusesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"g1", "g2", "g3"} {
		if err := jl.AppendJob(testJournalJob(id, "queued", 0, "")); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	good, _ := os.ReadFile(path)

	flipped := append([]byte(nil), good...)
	flipped[len(journalMagic)+recio.HeaderLen+10] ^= 0x40 // inside g1's record body
	undecodable := append(append([]byte(nil), good...), recio.Append(nil, jrecJob, []byte(`{"id":`))...)
	for name, image := range map[string][]byte{"flipped bit": flipped, "undecodable body": undecodable} {
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		jl2, st, err := OpenJournal(path)
		if err == nil {
			jl2.Close()
			t.Fatalf("%s: open succeeded with state %+v", name, st)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: error %q does not name the offset", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, image) {
			t.Errorf("%s: failed open changed the file: %d bytes, was %d", name, len(after), len(image))
		}
	}
}

// Compaction must be a lossless round trip: replaying the snapshot file
// yields the same state the snapshot described, and subsequent appends
// merge on top of it.
func TestJournalSnapshotCompactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		jl.AppendJob(testJournalJob("g1", "running", uint64(i+1), "s0"))
	}
	preSize := jl.Size()
	snap := &journalSnapshot{
		Order: []string{"g1", "g2"},
		Jobs: []journalJob{
			*testJournalJob("g1", "running", 50, "s0"),
			*testJournalJob("g2", "queued", 0, ""),
		},
		Keyframes: []journalKeyframe{{ID: "g1", Step: 40, Data: []byte("kf40")}},
		Tenants:   []journalTenant{{Name: "t", Weight: 2, Rate: 10, Burst: 20, Tokens: 3.5, LastFinish: 9}},
		VTime:     12.25,
		NextLease: 50,
	}
	if err := jl.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if jl.Size() >= preSize {
		t.Fatalf("compaction did not shrink the log: %d -> %d", preSize, jl.Size())
	}
	// Appends after compaction merge into the snapshot.
	if err := jl.AppendJob(testJournalJob("g3", "queued", 0, "")); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	_, st, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state after compaction")
	}
	if want := []string{"g1", "g2", "g3"}; !reflect.DeepEqual(st.Order, want) {
		t.Fatalf("order = %v, want %v", st.Order, want)
	}
	for _, rec := range snap.Jobs {
		got := st.Jobs[rec.ID]
		if got == nil || !reflect.DeepEqual(*got, rec) {
			t.Fatalf("job %s replay differs from snapshot:\ngot  %+v\nwant %+v", rec.ID, got, rec)
		}
	}
	if kf := st.Keyframes["g1"]; kf == nil || !reflect.DeepEqual(*kf, snap.Keyframes[0]) {
		t.Fatalf("keyframe replay = %+v, want %+v", st.Keyframes["g1"], snap.Keyframes[0])
	}
	if !reflect.DeepEqual(st.Tenants, snap.Tenants) {
		t.Fatalf("tenants replay = %+v, want %+v", st.Tenants, snap.Tenants)
	}
	if st.VTime != snap.VTime || st.NextLease != snap.NextLease {
		t.Fatalf("clocks replay = (%v, %d), want (%v, %d)", st.VTime, st.NextLease, snap.VTime, snap.NextLease)
	}
	// Only g3 was admitted after the snapshot; g1's 50 pre-snapshot
	// records must not debit the replayed bucket.
	if st.Admissions["t"] != 1 {
		t.Fatalf("Admissions[t] = %d, want 1 (post-snapshot admissions only)", st.Admissions["t"])
	}
}

// FuzzReadJournalRecord hammers journal replay with mutated images: it
// must never panic, never report more good bytes than it was given, and
// whatever prefix it accepts must replay again to the same length. (The
// record framing itself is fuzzed once, in internal/recio.)
func FuzzReadJournalRecord(f *testing.F) {
	body, _ := json.Marshal(testJournalJob("g1", "running", 3, "s0"))
	f.Add(recio.Append(nil, jrecJob, body))
	f.Add(recio.Append(nil, jrecKeyframe, []byte(`{"id":"g1","step":4,"data":"aGk="}`)))
	f.Add(recio.Append(nil, jrecSnapshot, []byte(`{"order":[]}`)))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, recio.HeaderLen+recio.CRCLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, good, err := replayJournal(t, data)
		if good > len(data) {
			t.Fatalf("replay over-reads: good=%d > len=%d", good, len(data))
		}
		if err != nil {
			return
		}
		if _, again, err := replayJournal(t, data[:good]); err != nil || again != good {
			t.Fatalf("accepted prefix replays to %d bytes, %v; want %d", again, err, good)
		}
	})
}

// replayJournal opens a journal holding the magic and data, and reports
// its replayed state and how many bytes of data the open kept.
func replayJournal(t *testing.T, data []byte) (*JournalState, int, error) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	if err := os.WriteFile(path, append([]byte(journalMagic), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, st, err := OpenJournal(path)
	if err != nil {
		return nil, 0, err
	}
	defer jl.Close()
	return st, int(jl.Size()) - len(journalMagic), nil
}

// Parked results must survive an agent restart via the spool directory
// and disappear once acknowledged.
func TestParkStoreDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ps, err := newParkStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ps.Put(&parkedResult{JobID: "g2", State: "done", Result: json.RawMessage(`{"steps":3}`)})
	ps.Put(&parkedResult{JobID: "g1", State: "failed", Err: "boom"})

	ps2, err := newParkStore(dir) // the "restarted agent"
	if err != nil {
		t.Fatal(err)
	}
	list := ps2.List()
	if len(list) != 2 || list[0].JobID != "g1" || list[1].JobID != "g2" {
		t.Fatalf("reloaded park list = %+v", list)
	}
	if list[0].Err != "boom" || string(list[1].Result) != `{"steps":3}` {
		t.Fatalf("reloaded park entries lost fields: %+v", list)
	}
	if ps2.Remove("g1") == nil {
		t.Fatal("Remove(g1) found nothing")
	}
	if ps2.Remove("g1") != nil {
		t.Fatal("second Remove(g1) claimed to remove again")
	}
	ps3, err := newParkStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ps3.Len() != 1 {
		t.Fatalf("after ack, reloaded store has %d entries, want 1", ps3.Len())
	}
}

// TestParkStoreRewriteKeepsMode re-parks a result over an entry made
// private (0600): the mode stays, the new entry reloads, and no temp file
// is left beside it.
func TestParkStoreRewriteKeepsMode(t *testing.T) {
	dir := t.TempDir()
	ps, err := newParkStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Put(&parkedResult{JobID: "g1", State: "failed", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g1.json")
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ps.Put(&parkedResult{JobID: "g1", State: "done", Result: json.RawMessage(`{"steps":3}`)}); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o600 {
		t.Fatalf("re-parked entry: %v, mode %v, want 0600", err, info.Mode())
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("park dir holds %v (%v), want only g1.json", ents, err)
	}
	ps2, err := newParkStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if list := ps2.List(); len(list) != 1 || list[0].State != "done" || string(list[0].Result) != `{"steps":3}` {
		t.Fatalf("reloaded park list = %+v", list)
	}
}
