package fabric

import (
	"encoding/json"
	"fmt"
	"io"
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
// garbage or silently dropping the acknowledged records behind it; a
// failed append is rolled back. The file is a recio.File, like the
// result log and the frame chain. Record bodies are JSON: the journal is
// a recovery log, not a hot path, and debuggability beats density here.
// Compaction rewrites the file as one snapshot record through a temp
// file + rename, so a crash mid-compaction leaves the previous journal
// intact.

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
	// HeirID names the follower promoted in this canceled leader's
	// place: a shard still running the job under this ID reports to it.
	HeirID  string `json:"heir_id,omitempty"`
	Retries int    `json:"retries,omitempty"`
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

// Journal is the gateway's open write-ahead log. All methods are called
// with the gateway mutex held (appends record transitions of state that
// same mutex guards), so the Journal itself needs no locking.
type Journal struct {
	file *recio.File

	// compactBytes triggers a snapshot+truncate when the file outgrows
	// it; snapshotting resets the trigger to the snapshot size plus the
	// same budget, so compaction cost stays proportional to state size.
	compactBytes int64
}

// journalCompactBytes is the default snapshot+truncate threshold.
const journalCompactBytes = 4 << 20

// OpenJournal opens (creating if absent) the journal at path and replays
// it under recio's open rule: a torn tail is truncated so the next append
// lands on a clean record boundary; a corrupt record, or one that frames
// correctly but does not decode, fails the open and leaves the file
// untouched. The returned state is nil for a fresh journal.
func OpenJournal(path string) (*Journal, *JournalState, error) {
	st := newJournalState()
	f, err := recio.Open(path, journalMagic, func(_ int64, rec recio.Record) error {
		return st.apply(rec.Kind, rec.Body)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: journal %w", err)
	}
	jl := &Journal{file: f, compactBytes: journalCompactBytes}
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
	return jl.file.Size()
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
	if err := jl.file.Append(recio.Append(nil, kind, body)); err != nil {
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
	return jl != nil && (jl.file.Size() > jl.compactBytes || jl.file.Torn())
}

// Compact rewrites the journal as a single snapshot record through
// recio's atomic rewrite: a crash mid-compaction leaves the previous log
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
	rec := recio.Append(nil, jrecSnapshot, body)
	if err := jl.file.Rewrite(func(w io.Writer) error {
		_, err := w.Write(rec)
		return err
	}); err != nil {
		return err
	}
	jl.compactBytes = jl.file.Size() + journalCompactBytes
	return nil
}

// Close releases the file handle. The journal needs no trailer: every
// record is self-validating.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	return jl.file.Close()
}
