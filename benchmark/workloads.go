package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	barneshut "repro"
	"repro/internal/dist"
	"repro/internal/parbh"
	"repro/internal/vec"
)

// Physics shared by every workload: the paper's Gaussian dataset on the
// simulated CM5 (service_frames_tail alone opens the MAC to alpha 1.0).
const (
	datasetName = "g"
	alpha       = 0.67
	eps         = 0.01
	dt          = 0.001
	leafCap     = 8

	// baseSeconds is the -seconds value the units below are sized for:
	// about 10/3 s of timed work per round on the 2-core reference box.
	baseSeconds = 10
	// stepsPerFleetJob is the length of one fleet_small_jobs job.
	stepsPerFleetJob = 8
)

// workload is one named input set of the ledger. Later issues cite the
// names, so they never change meaning.
type workload struct {
	name string
	why  string
	// unit is what one timed operation is: a step or a job.
	unit string
	// n is the particle count (per job on the fleet), warmup the
	// untimed operations that count toward setup_s, units the timed
	// operations per round at -seconds baseSeconds.
	n, warmup, units int
	// simJitter marks function-shipping workloads, whose simulated clock
	// carries the documented waiting-time jitter (≈2 %).
	simJitter bool
	run       func(e *env) error
}

// workloads is the registry, in the order rounds run them.
var workloads = []*workload{
	{
		name: "serial_g50k", unit: "step", n: 50000, warmup: 2, units: 4, run: runSerial,
		why: "tree.FlatTree.AccelAll is ~97% of the step; parbh/msg/fabric/frames do nothing: a kernel change must show, a control-plane change must not",
	},
	{
		name: "dpda_func_p16", unit: "step", n: 20000, warmup: 2, units: 10, simJitter: true, run: runDPDA,
		why: "the paper's headline formulation: ~6.4M words/step through msg mailboxes and owner-side evaluation in parbh/funcship.go; let does nothing",
	},
	{
		name: "dpda_let_p16", unit: "step", n: 20000, warmup: 2, units: 20, run: runDPDA,
		why: "same physics as dpda_func_p16 through internal/let (sections, let.Flat kernel, cross-step cache): a gain for one strategy that costs the other shows",
	},
	{
		name: "cluster_tcp_func_p8", unit: "step", n: 10000, warmup: 1, units: 12, simJitter: true, run: runCluster,
		why: "8 ranks on 3 loopback-TCP nodes: every frame crosses transport codec + socket; only here do transport/cluster/parbh codec dominate",
	},
	{
		name: "fleet_small_jobs", unit: "job", n: 256, warmup: 2, units: 200, run: runFleet,
		why: "closed loop, 2 clients, journaled gateway + 2 shards, tiny jobs: admission, journal, dispatch, lease, delivery and cache own the time",
	},
	{
		name: "service_frames_tail", unit: "step", n: 40000, warmup: 2, units: 14, run: runFramesTail,
		why: "one framed job with a live tail-follow reader, then a replay: frame append + gather + gob checkpoint on the step path beside the read path",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// unitsFor scales a workload's timed operation count with -seconds.
// Work per round is a fixed count, never a time limit, so interaction,
// word and message counts repeat exactly.
func unitsFor(w *workload, seconds float64) int {
	u := int(math.Round(float64(w.units) * seconds / baseSeconds))
	if u < 1 {
		u = 1
	}
	return u
}

// env is everything one workload-round needs. The child process builds
// it from flags; the smoke test builds it directly.
type env struct {
	w     *workload
	seed  int64
	n     int // particle count (w.n unless the smoke test shrinks it)
	units int
	// crcStep, when positive, asks the DPDA workloads to fingerprint the
	// particle state after that many steps (for the func↔let check).
	crcStep int
	// check runs the reference computations that are too slow to repeat
	// every round (direct sum, in-proc engine).
	check bool
	// dir is a scratch directory for spools and journals, removed by the
	// caller.
	dir   string
	start time.Time // process (or smoke-test call) start: setup_s origin
	trace *spans    // nil when untraced
	res   *roundResult
}

// dataset generates the round's particles from the seed; the program
// under test only ever sees the generated set.
func (e *env) dataset() (*dist.Set, error) {
	return dist.Named(datasetName, e.n, e.seed)
}

// timedSection measures the timed part of a round on the host clock and
// in CPU seconds of this process.
type timedSection struct {
	t0   time.Time
	cpu0 float64
}

func usage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// beginTimed closes set-up: everything since the process started is
// setup_s, everything until endTimed is the timed section.
func (e *env) beginTimed() timedSection {
	now := time.Now()
	e.res.Scalars["setup_s"] = now.Sub(e.start).Seconds()
	return timedSection{t0: now, cpu0: cpuSeconds(usage())}
}

// endTimed records the throughput, CPU and memory metrics of the timed
// section. steps is the number of simulation steps it advanced, jobs the
// number of jobs it completed; a step workload is one job.
func (e *env) endTimed(ts timedSection, steps, jobs int) {
	wall := time.Since(ts.t0).Seconds()
	ru := usage()
	cpu := cpuSeconds(ru) - ts.cpu0
	s := e.res.Scalars
	s["steps_per_s"] = float64(steps) / wall
	s["jobs_per_s"] = float64(jobs) / wall
	s["cpu_s_per_step"] = cpu / float64(steps)
	s["cpu_s_per_job"] = cpu / float64(jobs)
	// ru_maxrss is the process's resident high-water mark (VmHWM) in KiB
	// on Linux; read here so the post-run checks do not count.
	s["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	s["timed_wall_s"] = wall
	if e.w.unit == "step" {
		e.res.Samples["job_latency_s_p50"] = []float64{wall}
		e.res.Samples["job_latency_s_p90"] = []float64{wall}
	}
	e.res.Units = e.units
}

// simAccum accumulates the simulated-clock and count fields of
// parbh.Result over the timed steps.
type simAccum struct {
	steps                          int
	simTime, imbalance, efficiency float64
	words, msgs, letHits           int64
	branchNodes                    int
	stats                          barneshut.InteractionStats
	phases                         map[string]float64
	commTime, busyTime             float64
}

func (a *simAccum) add(r *parbh.Result) {
	a.steps++
	a.simTime += r.SimTime
	a.imbalance += r.Imbalance
	a.efficiency += r.Efficiency
	a.words += r.CommWords
	a.msgs += r.CommMessages
	a.letHits += r.LETCacheHits
	a.branchNodes = r.BranchNodes
	a.stats.Add(r.Stats)
	if a.phases == nil {
		a.phases = map[string]float64{}
	}
	for k, v := range r.Phases {
		a.phases[k] += v
	}
	for _, ps := range r.ProcStats {
		a.commTime += ps.CommTime
		a.busyTime += ps.CommTime + ps.ComputeTime
	}
}

// phaseMetric maps a parbh.Result.Phases row to its per-layer name.
var phaseMetric = map[string]string{
	parbh.PhaseMigrate:   "parbh.sim_migrate_s",
	parbh.PhaseLocalTree: "parbh.sim_local_tree_s",
	parbh.PhaseTreeMerge: "parbh.sim_tree_merge_s",
	parbh.PhaseBroadcast: "parbh.sim_broadcast_s",
	parbh.PhaseLET:       "parbh.sim_let_s",
	parbh.PhaseForce:     "parbh.sim_force_s",
	parbh.PhaseLoadBal:   "parbh.sim_loadbal_s",
}

// report writes the accumulated per-step means.
func (a *simAccum) report(res *roundResult) {
	if a.steps == 0 {
		return
	}
	n := float64(a.steps)
	s := res.Scalars
	s["sim_step_s"] = a.simTime / n
	s["sim_imbalance"] = a.imbalance / n
	s["parbh.sim_efficiency"] = a.efficiency / n
	s["parbh.comm_words_per_step"] = float64(a.words) / n
	s["parbh.comm_msgs_per_step"] = float64(a.msgs) / n
	s["parbh.branch_nodes"] = float64(a.branchNodes)
	s["let.cache_hits_per_step"] = float64(a.letHits) / n
	reportStats(res, a.stats, a.steps)
	// Sum the phases in a fixed order so the mean is bit-reproducible.
	names := make([]string, 0, len(a.phases))
	for k := range a.phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if m, ok := phaseMetric[k]; ok {
			s[m] = a.phases[k] / n
		}
	}
	if a.busyTime > 0 {
		s["msg.sim_comm_frac"] = a.commTime / a.busyTime
	}
}

// reportStats writes the interaction counts per step.
func reportStats(res *roundResult, st barneshut.InteractionStats, steps int) {
	n := float64(steps)
	res.Scalars["tree.mac_tests_per_step"] = float64(st.MACTests) / n
	res.Scalars["tree.pc_per_step"] = float64(st.PC) / n
	res.Scalars["tree.pp_per_step"] = float64(st.PP) / n
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcFloats extends crc with the bit patterns of vs.
func crcFloats(crc uint32, vs ...float64) uint32 {
	buf := make([]byte, 0, 64)
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return crc32.Update(crc, castagnoli, buf)
}

// stateCRC fingerprints particle states bit-for-bit (ID, mass, position,
// velocity) in slice order.
func stateCRC(ps []dist.Particle) uint32 {
	var crc uint32
	for i := range ps {
		p := &ps[i]
		crc = crcFloats(crc, float64(p.ID), p.Mass, p.Pos.X, p.Pos.Y, p.Pos.Z, p.Vel.X, p.Vel.Y, p.Vel.Z)
	}
	return crc
}

// accelCRC fingerprints an acceleration vector bit-for-bit.
func accelCRC(as []vec.V3) uint32 {
	var crc uint32
	for _, a := range as {
		crc = crcFloats(crc, a.X, a.Y, a.Z)
	}
	return crc
}

// loadavg1m reads the host's 1-minute load average (0 when unreadable):
// the noise protocol records it at every round start.
func loadavg1m() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	if _, err := fmt.Sscan(string(b), &l); err != nil {
		return 0
	}
	return l
}
