package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/recio"
)

// parkedResult is one terminal result in the agent's outbox, kept until
// the gateway acknowledges it.
type parkedResult struct {
	JobID  string          `json:"job_id"`
	State  string          `json:"state"`
	Err    string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Live   bool            `json:"live,omitempty"` // a session was live at completion: not parked
}

// report is the entry's one terminal message, addressed by job ID.
func (p *parkedResult) report() Parked {
	return Parked{JobID: p.JobID, State: p.State, Err: p.Err, ResultJSON: p.Result}
}

// parkStore is the agent's outbox: every terminal result passes through
// it. With a directory it follows the service-spool discipline — one
// JSON file per entry under <spool>/parked/, written through
// recio.WriteFile (temp file, fsync, rename), surviving an agent
// restart; without one it is in memory only, which survives a gateway
// outage but not an agent crash.
type parkStore struct {
	dir string // "" = memory only

	mu  sync.Mutex
	mem map[string]*parkedResult
}

// newParkStore opens (creating if needed) the parked-result store and
// loads any entries a previous agent process left behind.
func newParkStore(dir string) (*parkStore, error) {
	ps := &parkStore{dir: dir, mem: make(map[string]*parkedResult)}
	if dir == "" {
		return ps, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: creating park dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		var p parkedResult
		if json.Unmarshal(data, &p) != nil || p.JobID == "" {
			continue // half-written or foreign file; redelivery is lost, not corrupted
		}
		ps.mem[p.JobID] = &p
	}
	return ps, nil
}

// Put adds one result, durably when a directory is configured.
func (ps *parkStore) Put(p *parkedResult) error {
	ps.mu.Lock()
	ps.mem[p.JobID] = p
	ps.mu.Unlock()
	if ps.dir == "" {
		return nil
	}
	return recio.WriteFile(filepath.Join(ps.dir, p.JobID+".json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(p)
	})
}

// Remove deletes one entry after the gateway acknowledged it, and
// returns the entry, nil when there was none (a redelivered ack removes
// nothing, so the drain counter only moves once per result).
func (ps *parkStore) Remove(jobID string) *parkedResult {
	ps.mu.Lock()
	p := ps.mem[jobID]
	delete(ps.mem, jobID)
	ps.mu.Unlock()
	if ps.dir != "" {
		os.Remove(filepath.Join(ps.dir, jobID+".json"))
	}
	return p
}

// List snapshots the entries in job-ID order (deterministic flush order
// for tests and logs).
func (ps *parkStore) List() []*parkedResult {
	ps.mu.Lock()
	out := make([]*parkedResult, 0, len(ps.mem))
	for _, p := range ps.mem {
		out = append(out, p)
	}
	ps.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Len reports how many results await an ack.
func (ps *parkStore) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.mem)
}
