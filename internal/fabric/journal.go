package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/recio"
	"repro/internal/service"
)

// The gateway journal is a durable write-ahead log of every state
// transition the gateway cannot afford to forget: submissions, tenant
// admission state, lease assignments, cancels, completions, and
// replicated keyframes. Terminal results are not in it: they go once
// into the result log beside it (resultlog.go), which every compaction
// syncs before its rename. It is a magic prefix followed by internal/recio
// records — the frame store's format — so a torn tail from a crash
// mid-append truncates cleanly on reopen, and a flipped bit anywhere
// else fails the checksum and refuses the open instead of replaying
// garbage or silently dropping the acknowledged records behind it.
// Record bodies are JSON: the journal is a recovery log, not a hot
// path, and debuggability beats density here. Compaction rewrites the
// file as one snapshot record through a temp file + rename, so a crash
// mid-compaction leaves the previous journal intact.

// journalMagic distinguishes a gateway journal from a frame chain (NBF1)
// at a glance; the version digit bumps on incompatible record changes.
const journalMagic = "NBJ1"

// Journal record kinds. A snapshot resets replay state; job and
// keyframe records merge into it, last write wins per job.
const (
	jrecSnapshot byte = 1
	jrecJob      byte = 2
	jrecKeyframe byte = 3
)

// journalJob is the durable form of one GwJob, which embeds it. Every
// mutation appends the job's full record; replay keeps the last one per
// ID, so the log needs no per-field delta encoding.
type journalJob struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Key       string          `json:"key"` // canonical cache key
	SpecJSON  json.RawMessage `json:"spec,omitempty"`
	Created   time.Time       `json:"created"`
	State     service.State   `json:"state"`
	Error     string          `json:"error,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	LeaderID  string          `json:"leader_id,omitempty"`
	Retries   int             `json:"retries,omitempty"`
	// CancelRequested marks a leased job whose Cancel was forwarded to
	// its shard: if that shard goes away before acknowledging, the job is
	// finished canceled instead of re-routed, and new submissions must
	// not coalesce onto it.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Recovering marks a job whose lease was superseded (its shard
	// re-registered) and which sat in the reconciliation set when this
	// record was written: it carries no lease, but replay must NOT
	// re-queue it — its shard may still be running it.
	Recovering bool `json:"recovering,omitempty"`
	// Lease and Shard say which shard holds the job under which lease;
	// LocalID is the shard-local job ID.
	Lease        uint64 `json:"lease,omitempty"`
	Shard        string `json:"shard,omitempty"`
	LocalID      string `json:"local_id,omitempty"`
	KeyframeStep int64  `json:"keyframe_step,omitempty"`
	// ResumedStep is what the current shard reported restoring from the
	// replicated keyframe (0 = scratch). FramesAddr is the HTTP address
	// of the shard that ran (or runs) the job — unlike the lease it
	// survives completion, so the frames replay proxy keeps its target.
	ResumedStep int     `json:"resumed_step,omitempty"`
	FramesAddr  string  `json:"frames_addr,omitempty"`
	FinishTag   float64 `json:"finish_tag,omitempty"` // WFQ virtual finish time
	// Result is only ever decoded: journals written before results moved
	// to the result log carry done jobs' results inline, and restore
	// migrates them there. No record written since carries one — a done
	// job finds its result in the log by Key.
	Result json.RawMessage `json:"result,omitempty"`
}

// journalKeyframe carries one replicated frame-store keyframe. Keyframes
// are journaled as their own records so the (large) frame bytes are not
// re-written with every job-state transition.
type journalKeyframe struct {
	ID   string `json:"id"`
	Step int64  `json:"step"`
	Data []byte `json:"data"`
}

// journalTenant is one tenant's admission state: bucket level and WFQ
// bookkeeping, captured in snapshots.
type journalTenant struct {
	Name       string  `json:"name"`
	Weight     float64 `json:"weight"`
	Rate       float64 `json:"rate"`
	Burst      float64 `json:"burst"`
	Tokens     float64 `json:"tokens"`
	LastFinish float64 `json:"last_finish"`
}

// journalSnapshot is the full replayable gateway state, written on
// compaction as the file's sole record.
type journalSnapshot struct {
	Order     []string          `json:"order"`
	Jobs      []journalJob      `json:"jobs"`
	Keyframes []journalKeyframe `json:"keyframes,omitempty"`
	Tenants   []journalTenant   `json:"tenants,omitempty"`
	VTime     float64           `json:"vtime"`
	NextLease uint64            `json:"next_lease"`
}

// JournalState is the replayed picture of a gateway at its last
// journaled transition: jobs (by ID, in submission order), the latest
// replicated keyframe per job, tenant admission state, and the WFQ /
// lease clocks.
type JournalState struct {
	Order     []string
	Jobs      map[string]*journalJob
	Keyframes map[string]*journalKeyframe
	Tenants   []journalTenant
	VTime     float64
	NextLease uint64
	// Admissions counts distinct jobs first journaled per tenant SINCE
	// the last snapshot. Snapshots capture token-bucket levels; each
	// admission after the snapshot consumed one token the snapshot does
	// not know about, so restore debits these from the replayed buckets.
	Admissions map[string]int
}

func newJournalState() *JournalState {
	return &JournalState{
		Jobs:       make(map[string]*journalJob),
		Keyframes:  make(map[string]*journalKeyframe),
		Admissions: make(map[string]int),
	}
}

// apply merges one record into the replay state.
func (st *JournalState) apply(kind byte, body []byte) error {
	switch kind {
	case jrecSnapshot:
		var snap journalSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return err
		}
		*st = *newJournalState()
		for i := range snap.Jobs {
			rec := snap.Jobs[i]
			st.Jobs[rec.ID] = &rec
		}
		// Order lists only IDs the snapshot actually carries; a snapshot
		// is self-consistent by construction but replay stays defensive.
		for _, id := range snap.Order {
			if _, ok := st.Jobs[id]; ok {
				st.Order = append(st.Order, id)
			}
		}
		for i := range snap.Keyframes {
			kf := snap.Keyframes[i]
			st.Keyframes[kf.ID] = &kf
		}
		st.Tenants = snap.Tenants
		st.VTime = snap.VTime
		st.NextLease = snap.NextLease
	case jrecJob:
		var rec journalJob
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		if rec.ID == "" {
			return fmt.Errorf("job record without id")
		}
		if _, ok := st.Jobs[rec.ID]; !ok {
			st.Order = append(st.Order, rec.ID)
			st.Admissions[rec.Tenant]++
		}
		st.Jobs[rec.ID] = &rec
		if rec.Lease > st.NextLease {
			st.NextLease = rec.Lease
		}
		if rec.FinishTag > st.VTime {
			st.VTime = rec.FinishTag
		}
	case jrecKeyframe:
		var kf journalKeyframe
		if err := json.Unmarshal(body, &kf); err != nil {
			return err
		}
		if kf.ID == "" {
			return fmt.Errorf("keyframe record without id")
		}
		if prev, ok := st.Keyframes[kf.ID]; ok && prev.Step >= kf.Step {
			return nil // out-of-order replication; keep the newer frame
		}
		st.Keyframes[kf.ID] = &kf
	default:
		// Unknown kinds from a newer writer are skipped, not fatal: the
		// fields this reader understands still replay.
	}
	return nil
}

// replayJournal scans a journal image (after the magic), applying every
// record, and reports how many bytes of the image are good. A torn tail
// — the crash-mid-append case — ends the scan without error and reopen
// truncates it away. Anything else that does not read back (a checksum
// failure with records behind it, an absurd length, a record that frames
// correctly but does not decode) is corruption: it is returned with the
// offset of the bad record and nothing may be truncated on its account.
func replayJournal(data []byte) (*JournalState, int, error) {
	st := newJournalState()
	off := 0
	for off < len(data) {
		rec, err := recio.Parse(data[off:])
		if errors.Is(err, recio.ErrTorn) {
			break
		}
		if err == nil {
			err = st.apply(rec.Kind, rec.Body)
		}
		if err != nil {
			return nil, off, err
		}
		off += rec.Len
	}
	return st, off, nil
}

// Journal is the gateway's open write-ahead log. All methods are called
// with the gateway mutex held (appends record transitions of state that
// same mutex guards), so the Journal itself needs no locking.
type Journal struct {
	recordFile
	path string

	// compactBytes triggers a snapshot+truncate when the file outgrows
	// it; snapshotting resets the trigger to the snapshot size plus the
	// same budget, so compaction cost stays proportional to state size.
	compactBytes int64
}

// journalFile is the part of *os.File the journal and the result log
// write through; the fault-injection tests substitute one that fails
// mid-write.
type journalFile interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// recordFile is an append-only file of recio records, the write half the
// journal and the result log share. Each record goes out in a single
// Write call, so a crash leaves at worst one torn record at the tail. A
// failed or short write (ENOSPC, EIO) is rolled back to the last record
// boundary: otherwise the partial record's length prefix would make
// replay swallow the good records appended after it and fail the CRC — a
// torn tail that truncates them all away, or corruption that refuses the
// next open.
type recordFile struct {
	f    journalFile
	size int64

	// tornTail is set when a failed append could not be rolled back: the
	// file may end in a partial record that replay would take, together
	// with everything written after it, for a torn tail. Appends stop
	// until the file is replaced.
	tornTail bool
}

// errTornTail refuses appends behind a partial record.
var errTornTail = errors.New("tail unrecoverable after a failed append")

// write appends one framed record.
func (rf *recordFile) write(rec []byte) error {
	if rf.tornTail {
		return errTornTail
	}
	if _, err := rf.f.Write(rec); err != nil {
		if rerr := rf.rollback(); rerr != nil {
			rf.tornTail = true
			return fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return err
	}
	rf.size += int64(len(rec))
	return nil
}

// rollback drops whatever a failed Write left past the last complete
// record and repositions the file there.
func (rf *recordFile) rollback() error {
	if err := rf.f.Truncate(rf.size); err != nil {
		return err
	}
	_, err := rf.f.Seek(rf.size, io.SeekStart)
	return err
}

// journalCompactBytes is the default snapshot+truncate threshold.
const journalCompactBytes = 4 << 20

// OpenJournal opens (creating if absent) the journal at path, replays
// it, and truncates any torn tail so the next append lands on a clean
// record boundary. A corrupt record fails the open and leaves the file
// untouched. The returned state is nil for a fresh journal.
func OpenJournal(path string) (*Journal, *JournalState, error) {
	data, err := os.ReadFile(path)
	fresh := false
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		fresh = true
	default:
		return nil, nil, fmt.Errorf("fabric: reading journal %s: %w", path, err)
	}

	jl := &Journal{path: path, compactBytes: journalCompactBytes}
	if fresh || len(data) == 0 {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("fabric: creating journal %s: %w", path, err)
		}
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fabric: initializing journal %s: %w", path, err)
		}
		jl.f, jl.size = f, int64(len(journalMagic))
		return jl, nil, nil
	}

	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return nil, nil, fmt.Errorf("fabric: %s is not a gateway journal (bad magic)", path)
	}
	st, good, err := replayJournal(data[len(journalMagic):])
	end := int64(len(journalMagic) + good)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: journal %s: bad record at offset %d of %d (file left untouched): %w",
			path, end, len(data), err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: opening journal %s: %w", path, err)
	}
	if end < int64(len(data)) {
		// Crash mid-append left a torn record; drop it so the replayed
		// state and the on-disk log agree byte for byte.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fabric: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: seeking journal: %w", err)
	}
	jl.f, jl.size = f, end
	if len(st.Jobs) == 0 && len(st.Keyframes) == 0 && len(st.Tenants) == 0 {
		return jl, nil, nil
	}
	return jl, st, nil
}

// Size reports the journal's on-disk size (backs nbodygw_journal_bytes).
func (jl *Journal) Size() int64 {
	if jl == nil {
		return 0
	}
	return jl.size
}

// append frames one JSON record and writes it; a torn tail waits for the
// compaction that replaces the file.
func (jl *Journal) append(kind byte, v any) error {
	if jl == nil {
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := jl.write(recio.Append(nil, kind, body)); err != nil {
		return fmt.Errorf("fabric: journal append: %w", err)
	}
	return nil
}

// AppendJob journals one job-state transition.
func (jl *Journal) AppendJob(rec *journalJob) error { return jl.append(jrecJob, rec) }

// AppendKeyframe journals one replicated keyframe.
func (jl *Journal) AppendKeyframe(id string, step int64, data []byte) error {
	return jl.append(jrecKeyframe, &journalKeyframe{ID: id, Step: step, Data: data})
}

// ShouldCompact reports whether the log has outgrown its snapshot
// budget, or has a tail only a rewrite can repair.
func (jl *Journal) ShouldCompact() bool {
	return jl != nil && (jl.size > jl.compactBytes || jl.tornTail)
}

// Compact rewrites the journal as a single snapshot record through a
// temp file + rename: a crash mid-compaction leaves the previous log
// untouched, and the rename is the commit point. The snapshot is also
// the one place the journal fsyncs — steady-state appends survive a
// process SIGKILL (the kernel holds the pages) and the periodic sync
// bounds what a whole-host crash can lose.
func (jl *Journal) Compact(snap *journalSnapshot) error {
	if jl == nil {
		return nil
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	buf := recio.Append([]byte(journalMagic), jrecSnapshot, body)
	tmp := jl.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, jl.path); err != nil {
		os.Remove(tmp)
		return err
	}
	old := jl.f
	nf, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	jl.f = nf
	jl.tornTail = false
	jl.size = int64(len(buf))
	jl.compactBytes = jl.size + journalCompactBytes
	return nil
}

// Close releases the file handle. The journal needs no trailer: every
// record is self-validating.
func (jl *Journal) Close() error {
	if jl == nil || jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
