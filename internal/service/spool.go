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
//
// Frame chains live beside the job directories, under a reserved name:
//
//	<root>/frames/<jobID>.nbf  columnar frame chain (see internal/frames)
//
// Every job appends one frame per completed step to its chain, and the
// chain's last intact frame is the job's resume point: the formulations
// derive tree and partition from particle positions each step, so a
// frame's positions, velocities, clocks and machine-time accumulator are
// a complete restart state. A stateless (cluster or potential-mode) job's
// frames carry only the header — step, machine time and the step's
// simulated-machine measurements — since its spec rebuilds the particles.
// The resume records of older daemons are reported and not read.
//
// Entries are removed when a job reaches a terminal state; whatever is
// left in the spool at startup is, by construction, work interrupted by
// a crash or shutdown. Frame chains deliberately outlive the job
// directory: a finished job's replay stream stays servable until its
// frames are compacted or pruned. spec.json is written through
// recio.WriteFile (temp file, fsync, rename), so a crash mid-write never
// corrupts the previous one.
type Spool struct {
	root string
}

// framesDirName is the reserved spool entry holding frame chains; Scan
// must never mistake it for a job directory. parkedDirName is likewise
// reserved for the fabric agent's result outbox (terminal results
// spooled until the gateway acknowledges them — see internal/fabric).
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

// The resume records an older daemon may have left in a job directory: a
// gob checkpoint, and the one-keyframe file of a job without a chain.
const (
	legacyGob    = "checkpoint.gob"
	legacyResume = "resume.nbf"
)

func (sp *Spool) jobDir(id string) string { return filepath.Join(sp.root, id) }

func (sp *Spool) framesFile(id string) string {
	return filepath.Join(sp.root, framesDirName, id+".nbf")
}

// FramesPath returns the frame-chain path for a job, creating the
// frames directory on first use. It returns "" (no chain) on a
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
		for _, name := range []string{legacyGob, legacyResume} {
			if _, err := os.Stat(filepath.Join(sp.jobDir(id), name)); err == nil {
				errs = append(errs, fmt.Errorf("spool job %s: ignoring legacy %s", id, name))
			}
		}
		rec := Recovered{ID: id, Spec: spec}
		f, err := frames.Tail(sp.framesFile(id))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("spool job %s: frame chain unusable for resume: %w", id, err))
		}
		if f != nil {
			if rec.resume, err = spec.resumeFrom(f); err != nil {
				errs = append(errs, fmt.Errorf("spool job %s: frame at step %d unusable, restarting from scratch: %w", id, f.Meta.Step, err))
			}
		}
		jobs = append(jobs, rec)
	}
	return jobs, errs
}
