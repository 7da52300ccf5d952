package barneshut

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// checkpoint is the serialized form of a Simulation: configuration plus
// authoritative particle state. The engine's internal decomposition is
// rebuilt on restore (the first step after a restore re-balances, exactly
// like the first step of a fresh simulation).
type checkpoint struct {
	Version int
	Config  Config
	Time    float64
	Steps   int
	Domain  Box
	Bodies  []Particle
}

// Checkpoint stream versions. v2 streams written while the job service
// kept gob checkpoints carry one more field, FrameStep; nothing reads it
// any more and gob drops a stream field the struct lacks, so v1 and
// either kind of v2 decode alike. Anything outside
// [checkpointMinVersion, checkpointVersion] fails with a
// version-specific error.
const (
	checkpointVersion    = 2
	checkpointMinVersion = 1
)

// WriteCheckpoint serializes the simulation state so it can be resumed
// later with ReadCheckpoint. The stream is a stdlib gob encoding.
func (s *Simulation) WriteCheckpoint(w io.Writer) error {
	cp := checkpoint{
		Version: checkpointVersion,
		Config:  s.cfg,
		Time:    s.time,
		Steps:   s.steps,
		Domain:  s.Domain(),
		Bodies:  s.Bodies(),
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("barneshut: writing checkpoint: %w", err)
	}
	return nil
}

// Domain returns the engine's root cell so a restored or snapshotted
// decomposition anchors to the same cube.
func (s *Simulation) Domain() Box { return s.engine.Domain() }

// ReadCheckpoint reconstructs a Simulation from a checkpoint stream.
// It fails with a descriptive error on truncated or corrupt streams, on
// checkpoints written by a newer version of this package, and on
// versions older than checkpointMinVersion.
func ReadCheckpoint(r io.Reader) (*Simulation, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("barneshut: truncated checkpoint stream: %w", err)
		}
		return nil, fmt.Errorf("barneshut: corrupt checkpoint stream: %w", err)
	}
	if cp.Version > checkpointVersion {
		return nil, fmt.Errorf("barneshut: checkpoint version %d is newer than the supported version %d (written by a newer release?)",
			cp.Version, checkpointVersion)
	}
	if cp.Version < checkpointMinVersion {
		return nil, fmt.Errorf("barneshut: checkpoint version %d predates the oldest supported version %d",
			cp.Version, checkpointMinVersion)
	}
	set := &ParticleSet{Particles: cp.Bodies, Domain: cp.Domain}
	return RestoreSimulation(set, cp.Config, cp.Time, cp.Steps)
}

// RestoreSimulation rebuilds a mid-run Simulation from authoritative
// particle state: the engine re-derives its decomposition from the
// bodies, and the clocks restart at tm/steps. This is the shared core
// of ReadCheckpoint and the job service's resume from a frame (a
// decoded keyframe is exactly such a particle set).
func RestoreSimulation(set *ParticleSet, cfg Config, tm float64, steps int) (*Simulation, error) {
	if len(set.Particles) == 0 {
		return nil, errors.New("barneshut: restore from state with no particles")
	}
	sim, err := NewSimulation(set, cfg)
	if err != nil {
		return nil, err
	}
	sim.time = tm
	sim.steps = steps
	return sim, nil
}
