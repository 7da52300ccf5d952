package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/frames"
	"repro/internal/recio"
)

// Spool persists job state so the daemon can resume in-flight work
// after a restart. Each job owns one directory under the spool root:
//
//	<root>/<jobID>/spec.json   the submitted JobSpec (written once)
//	<root>/<jobID>/resume.nbf  one keyframe record: the resume point of a
//	                           job that has no frame chain to resume from;
//	                           a stateless (cluster or potential-mode)
//	                           job's has no particles, only the step count
//	                           and the machine time in its header
//
// Frame chains live beside the job directories, under a reserved name:
//
//	<root>/frames/<jobID>.nbf  columnar frame chain (see internal/frames)
//
// A job that records frames writes nothing but its spec into its
// directory: the chain holds every step's positions, velocities, clocks
// and machine-time accumulator bit-exactly, and the formulations derive
// tree and partition from those each step, so the chain's last intact
// frame is the job's checkpoint. resume.nbf is the same record for a job
// without a chain. A legacy gob checkpoint left by an older daemon is
// not read.
//
// Entries are removed when a job reaches a terminal state; whatever is
// left in the spool at startup is, by construction, work interrupted by
// a crash or shutdown. Frame chains deliberately outlive the job
// directory: a finished job's replay stream stays servable until its
// frames are compacted or pruned. Whole-file writes go through
// recio.WriteFile (temp file, fsync, rename), so a crash mid-write never
// corrupts the previous one.
type Spool struct {
	root string
}

// framesDirName is the reserved spool entry holding frame chains; Scan
// must never mistake it for a job directory. parkedDirName is likewise
// reserved for the fabric agent's parked-result store (terminal results
// spooled while the gateway is unreachable — see internal/fabric).
const (
	framesDirName = "frames"
	parkedDirName = "parked"
)

// ParkedDir returns the reserved parked-result directory for a spool
// root. It is a pure path helper — the fabric agent creates and manages
// the directory — exported so daemons derive it from one -spool flag.
func ParkedDir(root string) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, parkedDirName)
}

// NewSpool opens (creating if needed) a spool rooted at dir. An empty
// dir disables persistence and returns a nil Spool, on which all
// methods are no-ops.
func NewSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating spool: %w", err)
	}
	return &Spool{root: dir}, nil
}

func (sp *Spool) jobDir(id string) string { return filepath.Join(sp.root, id) }

func (sp *Spool) framesFile(id string) string {
	return filepath.Join(sp.root, framesDirName, id+".nbf")
}

func (sp *Spool) resumeFile(id string) string { return filepath.Join(sp.jobDir(id), "resume.nbf") }

// FramesPath returns the frame-chain path for a job, creating the
// frames directory on first use. It returns "" (frames disabled) on a
// nil spool or when the directory cannot be created.
func (sp *Spool) FramesPath(id string) string {
	if sp == nil {
		return ""
	}
	if err := os.MkdirAll(filepath.Join(sp.root, framesDirName), 0o755); err != nil {
		return ""
	}
	return sp.framesFile(id)
}

// RemoveFrames deletes a job's frame chain (retention pruning; terminal
// states keep theirs for replay).
func (sp *Spool) RemoveFrames(id string) error {
	if sp == nil {
		return nil
	}
	return os.Remove(sp.framesFile(id))
}

// FramesBytes sums the on-disk size of every frame chain in the spool;
// it backs the nbodyd_frames_bytes gauge.
func (sp *Spool) FramesBytes() int64 {
	if sp == nil {
		return 0
	}
	entries, err := os.ReadDir(filepath.Join(sp.root, framesDirName))
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// PutSpec records a newly admitted job. Called before the job is
// enqueued so a crash between admission and execution loses nothing.
func (sp *Spool) PutSpec(id string, spec JobSpec) error {
	if sp == nil {
		return nil
	}
	if err := os.MkdirAll(sp.jobDir(id), 0o755); err != nil {
		return err
	}
	return recio.WriteFile(filepath.Join(sp.jobDir(id), "spec.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(spec)
	})
}

// PutResume records f as the job's resume point, replacing the previous
// one: a frame file of one keyframe record (fsynced, like any seed); a
// stateless job's f has no particles. It returns the record size in bytes
// for metrics.
func (sp *Spool) PutResume(id string, f *frames.Frame) (int, error) {
	if sp == nil {
		return 0, nil
	}
	rec := frames.EncodeKeyframe(f)
	return len(rec), frames.WriteSeed(sp.resumeFile(id), rec)
}

// Remove deletes a job's spool entry (terminal state reached).
func (sp *Spool) Remove(id string) error {
	if sp == nil {
		return nil
	}
	return os.RemoveAll(sp.jobDir(id))
}

// Recovered is one interrupted job found in the spool at startup.
type Recovered struct {
	ID   string
	Spec JobSpec
	// resume is where the job picks up; zero when the spool holds no
	// usable state and the job restarts from step zero.
	resume resumePoint
}

// Scan returns every resumable job left in the spool, in directory
// order. Entries whose spec is unreadable are skipped (and reported in
// errs) rather than wedging startup; unusable resume state demotes the
// job to a from-scratch restart.
func (sp *Spool) Scan() (jobs []Recovered, errs []error) {
	if sp == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(sp.root)
	if err != nil {
		return nil, []error{err}
	}
	for _, ent := range entries {
		if !ent.IsDir() || ent.Name() == framesDirName || ent.Name() == parkedDirName {
			continue
		}
		id := ent.Name()
		specData, err := os.ReadFile(filepath.Join(sp.jobDir(id), "spec.json"))
		if err != nil {
			errs = append(errs, fmt.Errorf("spool job %s: %w", id, err))
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			errs = append(errs, fmt.Errorf("spool job %s: bad spec: %w", id, err))
			continue
		}
		if err := spec.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("spool job %s: invalid spec: %w", id, err))
			continue
		}
		if _, err := os.Stat(filepath.Join(sp.jobDir(id), "checkpoint.gob")); err == nil {
			errs = append(errs, fmt.Errorf("spool job %s: ignoring legacy gob checkpoint", id))
		}
		rec := Recovered{ID: id, Spec: spec}
		f, ferrs := sp.newestFrame(id)
		errs = append(errs, ferrs...)
		if f != nil {
			if rec.resume, err = spec.resumeFrom(f); err != nil {
				errs = append(errs, fmt.Errorf("spool job %s: frame at step %d unusable, restarting from scratch: %w", id, f.Meta.Step, err))
			}
		}
		jobs = append(jobs, rec)
	}
	return jobs, errs
}

// newestFrame returns the later of the job's two resume candidates — the
// last intact frame of its chain and its resume.nbf — or nil when it has
// neither. An unreadable candidate is reported in errs and skipped.
func (sp *Spool) newestFrame(id string) (newest *frames.Frame, errs []error) {
	for _, path := range []string{sp.framesFile(id), sp.resumeFile(id)} {
		f, err := frames.Tail(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("spool job %s: %s unusable for resume: %w", id, filepath.Base(path), err))
		}
		if f != nil && (newest == nil || f.Meta.Step > newest.Meta.Step) {
			newest = f
		}
	}
	return newest, errs
}
