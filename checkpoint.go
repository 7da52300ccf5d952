package barneshut

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/frames"
	"repro/internal/msg"
	"repro/internal/recio"
)

// A checkpoint is a Simulation's configuration and authoritative particle
// state, which is all a resume needs: the formulations rebuild tree and
// partition from the positions every step. The stream is the magic "NBC1"
// (its digit is the format's version), one recio record of the Config,
// and one frames keyframe record of the bodies in ID order whose header
// holds only Step, Time and the root cell: the record a job's frame chain
// and the gateway journal resume from.
const (
	checkpointMagic = "NBC1"
	recConfig       = 'C'
)

// codeConfig lists the fields of a checkpointed Config.
func codeConfig(c *recio.Coder, cfg *Config) {
	recio.Int32(c, &cfg.Processors)
	msg.CodeProfile(c, &cfg.Profile)
	recio.Int32(c, &cfg.Scheme)
	recio.Int32(c, &cfg.Mode)
	c.F64(&cfg.Alpha)
	recio.Int32(c, &cfg.Degree)
	c.F64(&cfg.Eps)
	recio.Int32(c, &cfg.LeafCap)
	recio.Int32(c, &cfg.GridLog2)
	recio.Int32(c, &cfg.BinSize)
	c.F64(&cfg.DT)
	c.Str(&cfg.Integrator)
	recio.Int32(c, &cfg.Shipping)
	recio.Int32(c, &cfg.BranchLookup)
	recio.Int32(c, &cfg.Ordering)
	recio.Int32(c, &cfg.TreeBuild)
}

// appendConfigRecord appends cfg's record to b.
func appendConfigRecord(b []byte, cfg Config) []byte {
	c := recio.Coder{W: recio.Writer{B: recio.Begin(b)}}
	codeConfig(&c, &cfg)
	return recio.Finish(c.W.B, len(b), recConfig)
}

// WriteCheckpoint writes the simulation's state so that ReadCheckpoint
// can resume it; the keyframe is streamed, not built in one buffer.
func (s *Simulation) WriteCheckpoint(w io.Writer) error {
	f := frames.Frame{Meta: frames.Meta{Step: int64(s.steps), Time: s.time, Domain: s.Domain()}}
	f.Parts.Gather(s.bodies)
	_, err := w.Write(appendConfigRecord([]byte(checkpointMagic), s.cfg))
	if err == nil {
		_, err = frames.WriteKeyframe(w, &f)
	}
	if err != nil {
		return fmt.Errorf("barneshut: writing checkpoint: %w", err)
	}
	return nil
}

// Domain returns the engine's root cell so a restored or snapshotted
// decomposition anchors to the same cube.
func (s *Simulation) Domain() Box { return s.engine.Domain() }

// ReadCheckpoint reconstructs a Simulation from a checkpoint stream. It
// refuses with a descriptive error a legacy gob stream, a newer format,
// and a truncated or corrupt stream — which includes any stream
// WriteCheckpoint cannot have written, so whatever it accepts writes back
// byte for byte.
func ReadCheckpoint(r io.Reader) (*Simulation, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("barneshut: reading checkpoint: %w", err)
	}
	n := len(checkpointMagic)
	if len(data) < n || string(data[:n]) != checkpointMagic {
		if len(data) >= n && string(data[:n-1]) == checkpointMagic[:n-1] && data[n-1] > checkpointMagic[n-1] {
			return nil, fmt.Errorf("barneshut: checkpoint format %q is newer than the supported %q", data[:n], checkpointMagic)
		}
		return nil, fmt.Errorf("barneshut: not a checkpoint stream: no %q magic (the legacy gob checkpoint format is no longer read)", checkpointMagic)
	}
	var cfg Config
	var f *frames.Frame
	c, err := recio.Parse(data[n:])
	if err == nil {
		// A short or padded body, another kind or another spelling of a
		// flag all write back differently.
		codeConfig(recio.Decoder(c.Body), &cfg)
		if !bytes.Equal(appendConfigRecord(nil, cfg), data[n:n+c.Len]) {
			err = errors.New("not the configuration record WriteCheckpoint writes")
		}
	}
	if err == nil {
		f, err = frames.DecodeKeyframe(data[n+c.Len:])
	}
	if err == nil && f.Meta != (frames.Meta{Step: f.Meta.Step, Time: f.Meta.Time, Domain: f.Meta.Domain}) {
		err = errors.New("keyframe header holds more than the clocks and the root cell")
	}
	for i := 0; err == nil && i < f.Parts.Len(); i++ {
		if int(f.Parts.ID[i]) != i {
			err = fmt.Errorf("body %d has ID %d", i, f.Parts.ID[i])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("barneshut: truncated or corrupt checkpoint stream: %w", err)
	}
	sim, err := RestoreSimulation(f, cfg)
	if err == nil && sim.cfg != cfg {
		return nil, errors.New("barneshut: corrupt checkpoint stream: the configuration is not an effective one")
	}
	return sim, err
}

// RestoreSimulation rebuilds a mid-run Simulation under cfg from a
// keyframe: the bodies, the clocks (Step, Time) and the root cell
// (Domain), which the engine takes as it is and re-derives its
// decomposition in. It is the one frame-to-simulation restore: of
// ReadCheckpoint, of the job service's spool and of a seeded job.
func RestoreSimulation(f *frames.Frame, cfg Config) (*Simulation, error) {
	if f.Parts.Len() == 0 {
		return nil, errors.New("barneshut: restore from state with no particles")
	}
	set := &ParticleSet{Particles: make([]Particle, f.Parts.Len()), Domain: f.Meta.Domain}
	f.Parts.Scatter(set.Particles)
	sim, err := newSimulation(set, cfg, set.Domain)
	if err != nil {
		return nil, err
	}
	sim.time, sim.steps = f.Meta.Time, int(f.Meta.Step)
	return sim, nil
}
