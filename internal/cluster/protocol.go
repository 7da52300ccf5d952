// Package cluster runs the SPMD simulated machine across real OS
// processes: a coordinator (proc 0) drives SPSA/SPDA/DPDA jobs on a
// machine whose ranks are block-partitioned over the member processes,
// exchanging engine payloads through internal/transport.
//
// The control protocol is deliberately small and step-granular:
//
//	coordinator → workers:  jobStart, stepCmd*, endJob, shutdown
//	workers → coordinator:  stepOutputs (inside parbh's result gather)
//
// All control traffic travels on the transport's untimed host channel;
// the simulated machine only ever sees rank-to-rank frames, so the
// simulated clock, interaction stats, and comm volumes of a job are
// bit-identical to the same job on an in-proc machine.
package cluster

import (
	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/recio"
	"repro/internal/transport"
	"repro/internal/vec"
)

// Wire IDs 51–60 are reserved for this package (see the block table in
// internal/transport/codec.go).
const (
	idJobStart uint16 = 51
	idStepCmd  uint16 = 52
	idEndJob   uint16 = 53
	idShutdown uint16 = 54
	idJobReady uint16 = 55
)

// Job describes one distributed engine run. Every process receives the
// full particle set and bootstraps the engine deterministically, so no
// initial scatter is needed; the per-step migrations keep only the
// owned particles hot on each rank afterwards.
type Job struct {
	Name    string
	Ranks   int // simulated processors (≥ member process count)
	Steps   int
	Profile msg.CostProfile
	Config  parbh.Config
	Domain  vec.Box
	Parts   []dist.Particle
}

// jobStart opens a job on the workers: the job itself plus the epoch
// that tags every frame of this run.
type jobStart struct {
	Epoch uint32
	Job   Job
}

// stepCmd tells workers to execute one engine step.
type stepCmd struct {
	Epoch uint32
	Step  int32
}

// endJob closes the current job on the workers.
type endJob struct {
	Epoch uint32
}

// shutdown tells a worker process to exit its serve loop.
type shutdown struct{}

// jobReady acknowledges jobStart: the worker's engine is built and its
// frame handlers are installed (or Err says why not). The coordinator
// collects one from every worker before the first stepCmd — without
// this barrier a fast coordinator could put rank frames on the wire
// while a worker is still decoding the job, and they would arrive at a
// link with no machine behind it.
type jobReady struct {
	Epoch uint32
	Err   string
}

func codeConfig(c *recio.Coder, cfg *parbh.Config) {
	recio.Int32(c, &cfg.Scheme)
	recio.Int32(c, &cfg.Mode)
	c.F64(&cfg.Alpha)
	recio.Int32(c, &cfg.Degree)
	c.F64(&cfg.Eps)
	recio.Int32(c, &cfg.LeafCap)
	recio.Int32(c, &cfg.GridLog2)
	recio.Int32(c, &cfg.BinSize)
	recio.Int32(c, &cfg.Shipping)
	recio.Int32(c, &cfg.BranchLookup)
	recio.Int32(c, &cfg.Ordering)
	recio.Int32(c, &cfg.TreeBuild)
}

func init() {
	transport.Register(idJobStart, func(c *recio.Coder, v *jobStart) {
		c.U32(&v.Epoch)
		c.Str(&v.Job.Name)
		recio.Int32(c, &v.Job.Ranks)
		recio.Int32(c, &v.Job.Steps)
		msg.CodeProfile(c, &v.Job.Profile)
		codeConfig(c, &v.Job.Config)
		c.V3(&v.Job.Domain.Min)
		c.V3(&v.Job.Domain.Max)
		recio.Slice(c, &v.Job.Parts, 8*8, func(c *recio.Coder, q *dist.Particle) {
			recio.Int64(c, &q.ID)
			c.F64(&q.Mass)
			c.V3(&q.Pos)
			c.V3(&q.Vel)
		})
	})
	transport.Register(idStepCmd, func(c *recio.Coder, v *stepCmd) {
		c.U32(&v.Epoch)
		c.I32(&v.Step)
	})
	transport.Register(idEndJob, func(c *recio.Coder, v *endJob) { c.U32(&v.Epoch) })
	transport.Register(idShutdown, func(*recio.Coder, *shutdown) {})
	transport.Register(idJobReady, func(c *recio.Coder, v *jobReady) {
		c.U32(&v.Epoch)
		c.Str(&v.Err)
	})
}
