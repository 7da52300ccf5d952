package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/frames"
)

// FramesTable measures the columnar frame store on the host clock:
// append cost and on-disk size of keyframes vs XOR-delta frames over a
// synthetic leapfrog-like trajectory, sequential replay throughput,
// indexed mid-chain seeks, and the cost of compacting a chain to half
// its size. The delta ratio column is the payoff of temporal coherence
// in the storage layer — consecutive frames share most of their
// position bits, so deltas shrink with step size exactly as the
// builder's adaptive re-sort shrinks with displacement.
func FramesTable(opt Options) (Table, error) {
	opt = opt.withDefaults()
	tab := Table{
		ID:      "frames",
		Title:   "columnar frame store, host wall-clock (real milliseconds, not simulated)",
		Columns: []string{"n", "frames", "key_kb", "delta_kb", "ratio", "append_ms", "replay_ms", "seek_ms", "compact_ms"},
		Notes: []string{
			"append/replay are per-chain totals at keyframe cadence 16; seek = SeekStep to the middle of the chain",
			"ratio = mean delta record size / keyframe record size (XOR deltas over a small-displacement trajectory)",
			"compact halves the chain byte budget, keeping whole keyframe groups from the newest backwards",
		},
	}
	dir, err := os.MkdirTemp("", "bhframes")
	if err != nil {
		return Table{}, err
	}
	defer os.RemoveAll(dir)

	const nFrames = 64
	for _, base := range []int{10000, 100000} {
		n := int(float64(base) * opt.Scale * 16)
		if n < 1000 {
			n = 1000
		}
		s, err := dist.Named("g", n, opt.Seed)
		if err != nil {
			return Table{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("chain-%d.nbf", n))
		traj := makeTrajectory(s, nFrames, opt.Seed)

		w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 16})
		if err != nil {
			return Table{}, err
		}
		var keyBytes, deltaBytes, nKeys, nDeltas int64
		appendWall := time.Duration(0)
		for i := range traj {
			before := w.Size()
			start := time.Now()
			isKey, err := w.Append(&traj[i])
			appendWall += time.Since(start)
			if err != nil {
				w.Close()
				return Table{}, err
			}
			if isKey {
				keyBytes += w.Size() - before
				nKeys++
			} else {
				deltaBytes += w.Size() - before
				nDeltas++
			}
		}
		if err := w.Close(); err != nil {
			return Table{}, err
		}

		replay := bestOf(3, func() {
			r, err := frames.Open(path)
			if err != nil {
				return
			}
			var f frames.Frame
			for r.Next(&f) == nil {
			}
			r.Close()
		})
		seek := bestOf(3, func() {
			r, err := frames.Open(path)
			if err != nil {
				return
			}
			var f frames.Frame
			if r.SeekStep(nFrames/2) == nil {
				r.Next(&f)
			}
			r.Close()
		})

		cw, err := frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 16})
		if err != nil {
			return Table{}, err
		}
		budget := cw.Size() / 2
		start := time.Now()
		if _, err := cw.Compact(frames.Retention{MaxBytes: budget}); err != nil {
			cw.Close()
			return Table{}, err
		}
		compact := time.Since(start)
		cw.Close()

		keyKB := float64(keyBytes) / float64(max64(nKeys, 1)) / 1024
		deltaKB := float64(deltaBytes) / float64(max64(nDeltas, 1)) / 1024
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(nFrames),
			f2(keyKB),
			f2(deltaKB),
			f3(deltaKB / keyKB),
			f2(appendWall.Seconds() * 1e3),
			f2(replay.Seconds() * 1e3),
			f3(seek.Seconds() * 1e3),
			f2(compact.Seconds() * 1e3),
		})
		recordHost("frames-append", n, appendWall)
		recordHost("frames-replay", n, replay)
		recordHost("frames-seek", n, seek)
		recordHost("frames-compact", n, compact)
	}
	return tab, nil
}

// makeTrajectory synthesizes nFrames frames from a particle set by
// integrating a jittered drift: displacement magnitudes mirror what one
// leapfrog step with a sane dt produces, so the XOR deltas exercise the
// same bit-sharing regime real job chains hit.
func makeTrajectory(s *dist.Set, nFrames int, seed int64) []frames.Frame {
	rng := rand.New(rand.NewSource(seed))
	bodies := append([]dist.Particle(nil), s.Particles...)
	scale := s.Domain.Size().X * 1e-4
	out := make([]frames.Frame, nFrames)
	for i := range out {
		for j := range bodies {
			bodies[j].Pos.X += (rng.Float64() - 0.5) * scale
			bodies[j].Pos.Y += (rng.Float64() - 0.5) * scale
			bodies[j].Pos.Z += (rng.Float64() - 0.5) * scale
		}
		out[i].Meta = frames.Meta{
			Step:   int64(i),
			Time:   float64(i) * 0.01,
			Domain: s.Domain,
		}
		out[i].Parts = *dist.FromAoS(bodies)
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
