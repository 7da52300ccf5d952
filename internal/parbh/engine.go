package parbh

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/obsv"
	"repro/internal/partition"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Engine runs the parallel Barnes–Hut method on a simulated
// message-passing machine. It holds the distribution state that persists
// across time-steps: which processor owns which particles, the cluster
// ownership map (SPSA/SPDA), the Morton/Hilbert cluster ordering, and the
// DPDA zone boundary keys. Step executes one full time-step: particle
// migration, distributed tree construction, force (or potential)
// computation, and the scheme's load-balancing exchange.
type Engine struct {
	cfg     Config
	machine *msg.Machine
	domain  vec.Box
	n       int

	parts [][]dist.Particle // per-processor particle sets

	// SPSA/SPDA state.
	grid      *partition.Grid
	owner     []int // cluster -> processor
	clusOrder []int // cluster indices in curve order

	// DPDA state: boundKeys[i] is the smallest full-resolution Morton key
	// owned by processor i (boundKeys[0] = 0).
	boundKeys []uint64

	// builders[i] is rank i's persistent tree builder (DPDA only; lazily
	// created, nil for ranks hosted by other processes). It owns the
	// rank's tree columns, its one (key, ID)-sorted particle snapshot and
	// the sort's permutation buffers from one step to the next. A rank's
	// particle count changes every step, so its builds are cold: the
	// builder is kept for its storage, not for its warm path.
	builders []*tree.Builder

	// forests[i] is rank i's tree of cluster subtrees (SPSA/SPDA only;
	// lazily created), emptied and refilled every step.
	forests []*tree.Tree

	// letFlats[i] is rank i's reusable flat essential tree (lazily
	// created; function shipping's force mode flattens into it too, with
	// no sections).
	letFlats []*let.Flat

	// ship[i] is rank i's function-shipping scratch kept across steps, and
	// scratch[i] what its particle exchanges keep.
	ship    []shipScratch
	scratch []rankScratch

	step int
}

// New prepares an engine for the particle set on the given machine. The
// set's Domain must enclose the particles for the whole simulation (the
// hierarchical decomposition is anchored to it).
func New(machine *msg.Machine, set *dist.Set, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	p := machine.P
	e := &Engine{cfg: cfg, machine: machine, n: set.N()}
	e.domain = set.Domain.Cube()
	e.builders = make([]*tree.Builder, p)
	e.forests = make([]*tree.Tree, p)
	e.letFlats = make([]*let.Flat, p)
	e.ship = make([]shipScratch, p)
	e.scratch = make([]rankScratch, p)
	for _, rk := range machine.LocalRanks() {
		e.scratch[rk] = rankScratch{buckets: make([][]dist.Particle, p), payloads: make([]any, p),
			words: make([]int, p), extraLoad: make(map[int]float64)}
	}

	switch cfg.Scheme {
	case SPSA, SPDA:
		r := 1 << cfg.GridLog2
		if r*r*r < p {
			return nil, fmt.Errorf("parbh: %d clusters cannot cover %d processors (raise GridLog2)", r*r*r, p)
		}
		grid, err := partition.NewGrid(e.domain, r, r, r)
		if err != nil {
			return nil, err
		}
		e.grid = grid
		e.owner, err = grid.ScatterAssign(p)
		if err != nil {
			return nil, err
		}
		if cfg.Ordering == HilbertOrdering {
			e.clusOrder = grid.HilbertOrder()
		} else {
			e.clusOrder = grid.MortonOrder()
		}
		e.parts = make([][]dist.Particle, p)
		for _, q := range set.Particles {
			o := e.owner[grid.ClusterOf(q.Pos)]
			e.parts[o] = append(e.parts[o], q)
		}
	case DPDA:
		// Bootstrap: Morton-sort and split into p equal-count zones.
		// The zones share one array; each is clipped to its own length so
		// that migration's appends reallocate instead of running into the
		// next rank's particles.
		ps, ks := tree.SortByKey(set.Particles, e.domain)
		starts, bounds := partition.EqualCountZones(ks, p)
		e.boundKeys = bounds
		e.parts = make([][]dist.Particle, p)
		for proc := range e.parts {
			e.parts[proc] = ps[starts[proc]:starts[proc+1]:starts[proc+1]]
		}
	default:
		return nil, fmt.Errorf("parbh: unknown scheme %v", cfg.Scheme)
	}
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Domain returns the cubic root cell the decomposition is anchored to.
func (e *Engine) Domain() vec.Box { return e.domain }

// Parts returns the current per-processor particle sets (read-only view).
func (e *Engine) Parts() [][]dist.Particle { return e.parts }

// SetParticles replaces every particle's state keeping the current
// ownership (used by the time integrator: positions advance in place).
// updated must be indexed by particle ID.
func (e *Engine) SetParticles(updated []dist.Particle) {
	for proc := range e.parts {
		for i := range e.parts[proc] {
			e.parts[proc][i] = updated[e.parts[proc][i].ID]
		}
	}
}

// ownerOfPos returns the processor owning a position under the current
// decomposition.
func (e *Engine) ownerOfPos(pos vec.V3) int {
	switch e.cfg.Scheme {
	case SPSA, SPDA:
		return e.owner[e.grid.ClusterOf(pos)]
	default:
		k := keys.FullKey3(pos, e.domain)
		// Last boundary ≤ k.
		i := sort.Search(len(e.boundKeys), func(i int) bool { return e.boundKeys[i] > k })
		return i - 1
	}
}

// localState carries one processor's per-step working data between
// phases.
type localState struct {
	me       int
	parts    []dist.Particle
	spare    []dist.Particle  // DPDA: the array migrate assembled, dead once the builder has sorted it
	tree     *tree.Tree       // the rank's subtrees: its builder's tree or its forest
	branches []int32          // local branch subtree roots in tree, Morton order
	rootsMap map[uint64]int32 // packed key -> branch root
	lookup   branchLookup     // request-serving lookup structure
	top      *pnode           // replicated global tree, shared with this process's other ranks: read-only
	cells    *let.Cells       // top's geometry for LET's essential-set test, shared and read-only like it
	summary  []BranchSummary  // this proc's branch summaries
	stats    tree.Stats       // interaction counts charged here
	forceT   float64          // compute-seconds spent in the force phase

	// extraLoad attributes interactions computed against replicated top
	// and remote summaries (which no tree node records) to the traversing
	// particle, so the load-balancing schemes see the whole force cost of
	// a region, not just its subtree-resident share.
	extraLoad map[int]float64

	// LET-shipping per-step state (LETShipping only).
	letFlat *let.Flat           // grafted flat essential tree
	letSent map[letPair][]int32 // shipped nodes of tree by (peer, branch), ordinal-aligned
}

// ownRoot returns the root in st.tree of this rank's subtree under branch
// cell n of the shared replicated tree, -1 when the cell is none of its
// own. The other owners of a cell it shares are not asked: its own subtree
// stands for the cell.
func (st *localState) ownRoot(n *pnode) int32 {
	if !slices.Contains(n.owners, st.me) {
		return -1
	}
	root, ok := st.rootsMap[n.cell.Uint64()]
	if !ok {
		panic(fmt.Sprintf("parbh: missing local subtree for branch %v", n.cell))
	}
	return root
}

// rankScratch is what a rank's particle exchanges and force phase keep from
// one step to the next: host-side buffers only, each read and rewritten by
// its own rank's goroutine.
type rankScratch struct {
	buckets   [][]dist.Particle // per destination: the particles leaving for it; empty between exchanges
	payloads  []any             // per destination, for AllToAll
	words     []int
	shares    []float64       // balanceDPDA: per-particle load, local Morton order
	extraLoad map[int]float64 // behind localState.extraLoad, cleared by the force phase
	section   let.Scratch     // LET: the columns every section is built in, then copied out
}

// message tags of the engine protocols (collectives use their own space).
const (
	tagRequest = iota + 1
	tagReply
	tagDoneUp
	tagDoneDown
	tagFetchReq
	tagFetchRep
	tagShipLog
	tagShipClock
	tagBranchUp // plus the level of the cell a summary is sent up to: keep last
)

// wireParticle is the particle representation moved between processors.
type wireParticle struct {
	ID   int32
	Mass float64
	Pos  vec.V3
	Vel  vec.V3
}

const wireParticleWords = 8

// toWire packs particles into a wire buffer.
func toWire(ps []dist.Particle) []wireParticle {
	out := make([]wireParticle, len(ps))
	for i, q := range ps {
		out[i] = wireParticle{ID: int32(q.ID), Mass: q.Mass, Pos: q.Pos, Vel: q.Vel}
	}
	return out
}

// fromWire appends a received wire buffer's particles to dst.
func fromWire(dst []dist.Particle, ws []wireParticle) []dist.Particle {
	for _, w := range ws {
		dst = append(dst, dist.Particle{ID: int(w.ID), Mass: w.Mass, Pos: w.Pos, Vel: w.Vel})
	}
	return dst
}

// exchangeParticles sends the rank's bucket i to every other processor i
// with one all-to-all personalized communication and appends what arrives
// to dst, grown once to hold it, in rank order. The rank's own bucket is
// never sent (the machine charges no self payload either): callers keep
// their stayers in dst and bucket only the particles that leave.
func (e *Engine) exchangeParticles(pr *msg.Proc, dst []dist.Particle) []dist.Particle {
	me := pr.ID()
	sc := &e.scratch[me]
	for i, b := range sc.buckets {
		if i != me {
			sc.payloads[i] = toWire(b)
			sc.words[i] = wireParticleWords * len(b)
			sc.buckets[i] = b[:0]
		}
	}
	recv := pr.AllToAll(sc.payloads, sc.words)
	clear(sc.payloads) // the buffers are their receivers' now
	total := 0
	for src, r := range recv {
		if src != me {
			total += len(r.([]wireParticle))
		}
	}
	dst = slices.Grow(dst, total)
	for src, r := range recv {
		if src != me {
			dst = fromWire(dst, r.([]wireParticle))
		}
	}
	return dst
}

// keepOwn leaves in ps, in order, the particles dest assigns to this rank
// and puts every other one into its destination's bucket. It returns the
// kept prefix of ps.
func (e *Engine) keepOwn(me int, ps []dist.Particle, dest func(q dist.Particle) int) []dist.Particle {
	buckets := e.scratch[me].buckets
	kept := ps[:0]
	for _, q := range ps {
		if o := dest(q); o == me {
			kept = append(kept, q)
		} else {
			buckets[o] = append(buckets[o], q)
		}
	}
	return kept
}

// Step runs one parallel time-step and returns its results and timings.
// A transport failure on a distributed machine is raised as a panic;
// services that must survive faults use StepErr instead.
func (e *Engine) Step() *Result {
	res, err := e.StepErr()
	if err != nil {
		panic(err)
	}
	return res
}

// Machine returns the engine's message-passing machine; supervisors use
// it to interrupt a step whose peers have gone silent.
func (e *Engine) Machine() *msg.Machine { return e.machine }

// StepErr runs one parallel time-step, containing machine failures: a
// transport fault (or an Interrupt from a watchdog) mid-step unwinds
// every local rank and comes back as the error, leaving the process
// alive. After an error the engine and its machine are poisoned and
// must be rebuilt; the constant-particle job model makes that cheap —
// a fresh engine silently replays to the failed step and resumes.
func (e *Engine) StepErr() (*Result, error) {
	p := e.machine.P
	deg := e.cfg.degreeOrMonopole()

	letMode := e.cfg.Shipping == LETShipping
	order := []string{PhaseMigrate, PhaseLocalTree, PhaseBroadcast, PhaseTreeMerge}
	if letMode {
		order = append(order, PhaseLET)
	}
	order = append(order, PhaseForce, PhaseLoadBal)
	res := &Result{
		Phases:     make(map[string]float64),
		PhaseOrder: order,
	}
	if e.cfg.Mode == ForceMode {
		res.Accels = make([]vec.V3, e.n)
	} else {
		res.Potentials = make([]float64, e.n)
	}

	// Shared per-proc outputs (each goroutine writes only its own index,
	// or distinct particle IDs it owns).
	newParts := make([][]dist.Particle, p)
	procStats := make([]tree.Stats, p)
	forceTimes := make([]float64, p)
	branchCounts := make([]int, p)
	phaseTimes := make([][]float64, p)
	ownedIDs := make([][]int32, p) // distributed: IDs owned at force time
	var newOwner []int             // SPDA: next step's cluster assignment
	var newBounds []uint64         // DPDA: next step's boundary keys

	// On a distributed machine only this process's ranks run here; the
	// lowest local rank stands in for rank 0's once-per-process duties.
	distributed := e.machine.Distributed()
	leader := e.machine.Leader()

	tracer := e.machine.Tracer()
	step := e.step
	merge := new(topMerge)

	machineStats, runErr := e.machine.RunErr(func(pr *msg.Proc) {
		st := &localState{me: pr.ID(), parts: e.parts[pr.ID()]}
		marks := make([]float64, 0, 8)
		// mark closes a phase: it reads this rank's own clock, then joins
		// the phase-delimiting collective that advances every clock to the
		// global maximum. With a tracer attached the gap between the two
		// readings becomes the rank's "barrier wait" span — the per-rank
		// idle time the load-balance comparison is about. The tracer only
		// observes the clock values the collective produces anyway, so the
		// simulated metrics are identical with tracing on or off.
		mark := func(phase string) {
			own := pr.Now()
			global := pr.GlobalMaxTime()
			if tracer != nil && phase != "" {
				start := marks[len(marks)-1]
				tracer.SimSpan(pr.ID(), phase, "phase", start, own, obsv.Int("step", step))
				if global > own {
					tracer.SimSpan(pr.ID(), "barrier wait", "wait", own, global,
						obsv.Int("step", step), obsv.Str("after", phase))
				}
			}
			marks = append(marks, global)
		}
		mark("")

		e.migrate(pr, st)
		mark(PhaseMigrate)

		e.buildLocal(pr, st)
		mark(PhaseLocalTree)

		gathered := e.exchangeBranches(pr, st)
		mark(PhaseBroadcast)

		e.buildTopPhase(pr, st, gathered, merge)
		mark(PhaseTreeMerge)

		if letMode {
			e.letExchange(pr, st)
			mark(PhaseLET)
		}

		e.forcePhase(pr, st, res)
		mark(PhaseForce)

		if distributed {
			// Snapshot ownership before loadBalance reshuffles st.parts:
			// these are the particles whose results this rank computed.
			ids := make([]int32, len(st.parts))
			for i, q := range st.parts {
				ids[i] = int32(q.ID)
			}
			ownedIDs[st.me] = ids
		}

		no, nb := e.loadBalance(pr, st)
		mark(PhaseLoadBal)
		if tracer != nil {
			tracer.SimSpan(pr.ID(), "step", "step", marks[0], marks[len(marks)-1],
				obsv.Int("step", step), obsv.F64("force_compute_s", st.forceT))
		}

		newParts[st.me] = st.parts
		procStats[st.me] = st.stats
		forceTimes[st.me] = st.forceT
		branchCounts[st.me] = len(st.branches)
		phaseTimes[st.me] = marks
		if st.me == leader {
			newOwner = no
			newBounds = nb
		}
	})

	if runErr != nil {
		return nil, runErr
	}

	if distributed {
		locals := make([]rankOut, 0, len(e.machine.LocalRanks()))
		for _, rk := range e.machine.LocalRanks() {
			locals = append(locals, localRankOut(e, rk, ownedIDs[rk],
				machineStats[rk], procStats[rk], forceTimes[rk], branchCounts[rk], res))
		}
		if err := e.gatherOutputs(e.step, locals, res, machineStats,
			procStats, forceTimes, branchCounts); err != nil {
			return nil, err
		}
	}

	// Persist the distribution for the next step.
	e.parts = newParts
	if newOwner != nil {
		e.owner = newOwner
	}
	if newBounds != nil {
		e.boundKeys = newBounds
	}
	e.step++

	// Assemble the result from the leader's phase marks (identical on
	// all processors by construction of GlobalMaxTime).
	marks := phaseTimes[leader]
	for i, name := range res.PhaseOrder {
		res.Phases[name] = marks[i+1] - marks[i]
	}
	if e.cfg.Scheme == SPSA {
		// Static assignment has no load-balancing work (Table 3 reports
		// 0); the measured residue is only the phase-delimiting collective.
		res.Phases[PhaseLoadBal] = 0
	}
	for i := range procStats {
		res.Stats.Add(procStats[i])
	}
	for _, b := range branchCounts {
		res.BranchNodes += b
	}
	res.ProcStats = machineStats
	res.SimTime = msg.MaxTime(machineStats)
	res.CommWords = msg.TotalWords(machineStats)
	res.CommMessages = msg.TotalMessages(machineStats)

	// Sequential-time projection (Section 5: "speed-up and efficiency
	// results are computed by extrapolating force computation rates on a
	// single processor"): the essential force work plus a serial tree
	// build estimate.
	levels := math.Ceil(math.Log(math.Max(float64(e.n)/float64(e.cfg.LeafCap), 2))/math.Log(8)) + 1
	seqFlops := res.Stats.Flops(deg) + float64(e.n)*levels*phys.TreeInsertFlops
	if e.cfg.Mode == PotentialMode {
		nodes := 2 * float64(e.n) / float64(e.cfg.LeafCap)
		seqFlops += float64(e.n)*phys.P2MFlops(deg) + nodes*phys.M2MFlops(deg)
	}
	res.SeqTime = seqFlops / e.machine.Profile.FlopRate
	if res.SimTime > 0 {
		res.Speedup = res.SeqTime / res.SimTime
		res.Efficiency = res.Speedup / float64(p)
	}

	// Imbalance of the force phase, by modelled compute time. The raw
	// per-rank times are exported too: they are the load histogram the
	// observability layer profiles (gatherOutputs filled remote ranks'
	// entries on a distributed machine).
	res.RankForce = forceTimes
	var sumT, maxT float64
	for _, t := range forceTimes {
		sumT += t
		if t > maxT {
			maxT = t
		}
	}
	if sumT > 0 {
		res.Imbalance = maxT / (sumT / float64(p))
	} else {
		res.Imbalance = 1
	}
	return res, nil
}

// migrate enforces ownership: particles that drifted out of their
// processor's region since the last step are shipped to their current
// owner with one all-to-all personalized exchange. Only they move: the
// stayers are kept in place in the rank's array and the arrivals appended
// after them.
func (e *Engine) migrate(pr *msg.Proc, st *localState) {
	pr.Compute(float64(len(st.parts)) * 6) // bucketing cost
	st.parts = e.exchangeParticles(pr, e.keepOwn(st.me, st.parts, func(q dist.Particle) int {
		return e.ownerOfPos(q.Pos)
	}))
	if e.cfg.Scheme == DPDA {
		// The DPDA load balance relies on rank-concatenation being the
		// global Morton order, so the local set is sorted by (key, ID): on
		// the host in buildLocal, where the builder sorts it into its
		// snapshot, on the simulated clock here, where it always was.
		pr.Compute(float64(len(st.parts)) * 12)
		return
	}
	mine := st.parts
	// Canonicalize to ID order. SPSA/SPDA need no particular order, but
	// leaving migrated particles appended in arrival order makes every
	// float accumulation (leaf summation, per-rank clock) a function of
	// migration history — a simulation restored from a checkpoint or
	// keyframe rebuilds in ID order and would drift from the original
	// by ulps after the first migration. Host-side only, so no
	// simulated cost is charged: the algorithm itself never consumes
	// the order.
	sort.Slice(mine, func(a, b int) bool { return mine[a].ID < mine[b].ID })
}

// buildLocal constructs this processor's branch subtrees (Section 3.1:
// "each processor can independently construct their trees").
func (e *Engine) buildLocal(pr *msg.Proc, st *localState) {
	st.rootsMap = make(map[uint64]int32)
	switch e.cfg.Scheme {
	case SPSA, SPDA:
		// One branch cell per owned, non-empty cluster.
		t := e.forests[st.me]
		if t == nil {
			t = tree.NewForest(e.domain, e.cfg.LeafCap)
			e.forests[st.me] = t
		}
		t.Reset()
		st.tree = t
		lvl := uint8(e.cfg.GridLog2)
		for c, ps := range e.grid.Bucket(st.parts) {
			if len(ps) == 0 {
				continue
			}
			i, j, k := e.grid.Coords(c)
			ck := keys.CellKey{Level: lvl, Key: keys.Encode3(uint32(i), uint32(j), uint32(k))}
			n := t.AddSubtreeKeyed(ps, ck)
			st.branches = append(st.branches, n)
			st.rootsMap[ck.Uint64()] = n
		}
		// Cluster index order is row-major; branches go in Morton order.
		sort.Slice(st.branches, func(a, b int) bool {
			return t.Cell(st.branches[a]).Less(t.Cell(st.branches[b]))
		})
	case DPDA:
		lo := e.boundKeys[st.me]
		hi := ^uint64(0)
		if st.me+1 < len(e.boundKeys) {
			hi = e.boundKeys[st.me+1]
		}
		// The keyed build guarantees cell membership agrees with the
		// quantized Morton keys that define zone ownership. The rank's
		// builder sorts the particles by (key, ID) into its snapshot, and
		// from here on that snapshot is the rank's particle set; the array
		// migrate assembled is dead until balanceDPDA refills it. Branch
		// nodes of the tree, pushed-down fragments included, are valid for
		// this step only.
		b := e.builders[st.me]
		if b == nil {
			b = tree.NewBuilder(e.domain, e.cfg.LeafCap)
			e.builders[st.me] = b
		}
		st.tree = b.Step(st.parts)
		st.spare, st.parts = st.parts, b.Particles()
		st.tree.MaximalCells(0, lo, hi, func(n int32) {
			st.branches = append(st.branches, n)
			st.rootsMap[st.tree.Key[n]] = n
		})
	}
	// Charge construction cost and build expansions.
	t := st.tree
	var levels int64
	for _, b := range st.branches {
		levels += t.ParticleLevels(b)
	}
	pr.Compute(float64(levels) * phys.TreeInsertFlops)
	if e.cfg.Mode == PotentialMode {
		for _, b := range st.branches {
			t.BuildExpansionsAt(b, e.cfg.Degree)
			pr.Compute(float64(t.Count(b))*phys.P2MFlops(e.cfg.Degree) +
				float64(t.CountNodes(b))*phys.M2MFlops(e.cfg.Degree))
		}
	}
	// Branch summaries.
	withExp := e.cfg.Mode == PotentialMode
	for _, b := range st.branches {
		st.summary = append(st.summary, summaryOf(t, b, st.me, withExp))
	}
	// Lookup structure for serving requests.
	if e.cfg.BranchLookup == SortedLookup {
		st.lookup = newSortedLookup(st.rootsMap)
	} else {
		st.lookup = hashLookup(st.rootsMap)
	}
}

// nonReplicated reports whether the step builds its top tree the
// non-replicated way, which needs the fixed-depth branch cells of the
// static clusters.
func (e *Engine) nonReplicated() bool {
	return e.cfg.TreeBuild == NonReplicatedBuild && (e.cfg.Scheme == SPSA || e.cfg.Scheme == SPDA)
}

// exchangeBranches distributes branch summaries to every processor, via
// either the broadcast-based construction (Section 3.1.1) or the
// non-replicated construction (Section 3.1.2). It returns every rank's
// []BranchSummary, by rank: its branch cells and, for the non-replicated
// variant, the top cells it computed.
func (e *Engine) exchangeBranches(pr *msg.Proc, st *localState) []any {
	payload := st.summary
	if e.nonReplicated() {
		payload = e.combineNonReplicated(pr, st)
	}
	words := 0
	for _, s := range payload {
		words += s.Words()
	}
	return pr.AllGather(payload, words)
}

// combineNonReplicated implements Section 3.1.2: each top cell has a
// designated owner which computes it exactly once from its children's
// summaries. It returns what this rank makes available to all processors
// in the all-to-all broadcast that follows: its branch summaries plus the
// top cells it computed.
func (e *Engine) combineNonReplicated(pr *msg.Proc, st *localState) []BranchSummary {
	p := pr.NumProcs()
	me := st.me
	deg := -1
	if e.cfg.Mode == PotentialMode {
		deg = e.cfg.Degree
	}
	ownerOfCell := func(ck keys.CellKey) int { return int(ck.Uint64() % uint64(p)) }

	// Which cells expect how many child summaries. Only non-empty clusters
	// send one, and a cluster has one owner, so summing every rank's
	// occupancy bits — one mask of eight per parent of a branch cell — is
	// their union, and from it every rank derives the child count of every
	// upper cell. Owners then block for exactly that many summaries: a
	// barrier says every earlier send was issued, not that it has arrived.
	g := e.cfg.GridLog2
	kids := make([][]int, g) // level → Morton index → non-empty children
	if g > 0 {
		occ := make([]float64, 1<<(3*uint(g-1)))
		for _, s := range st.summary {
			ck := keys.CellKeyFromUint64(s.Key)
			occ[ck.Parent().Key] += float64(uint(1) << ck.Octant())
		}
		occ = pr.SumF64(occ)
		kids[g-1] = make([]int, len(occ))
		for c, mask := range occ {
			kids[g-1][c] = bits.OnesCount8(uint8(mask))
		}
		for lvl := g - 2; lvl >= 0; lvl-- {
			kids[lvl] = make([]int, 1<<(3*uint(lvl)))
			for c, n := range kids[lvl+1] {
				if n > 0 {
					kids[lvl][c>>3]++
				}
			}
		}
	}
	// Send each of my branch summaries to the owner of its parent cell. A
	// level's summaries travel under that level's tag, so an owner never
	// takes — and is never advanced to the stamp of — a summary for a cell
	// it combines later.
	sendUp := func(s BranchSummary) {
		parent := keys.CellKeyFromUint64(s.Key).Parent()
		pr.Send(ownerOfCell(parent), tagBranchUp+int(parent.Level), s, s.Words())
	}
	for _, s := range st.summary {
		sendUp(s)
	}
	computed := make(map[uint64]BranchSummary)
	for lvl := g - 1; lvl >= 0; lvl-- {
		expect := 0
		var mine []keys.CellKey
		for c, n := range kids[lvl] {
			ck := keys.CellKey{Level: uint8(lvl), Key: keys.Morton(c)}
			if n > 0 && ownerOfCell(ck) == me {
				mine = append(mine, ck)
				expect += n
			}
		}
		children := make(map[uint64][]BranchSummary)
		for ; expect > 0; expect-- {
			data, _ := pr.Recv(msg.AnySource, tagBranchUp+lvl)
			s := data.(BranchSummary)
			ck := keys.CellKeyFromUint64(s.Key).Parent()
			children[ck.Uint64()] = append(children[ck.Uint64()], s)
		}
		for _, ck := range mine {
			// Fold in octant order whatever order the summaries arrived in.
			sums := children[ck.Uint64()]
			sort.Slice(sums, func(a, b int) bool { return sums[a].Key < sums[b].Key })
			sum := combineSummaries(ck, sums, deg)
			pr.Compute(float64(len(sums)) * phys.NodeCombineFlops)
			if deg >= 0 {
				pr.Compute(float64(len(sums)) * phys.M2MFlops(deg))
			}
			computed[ck.Uint64()] = sum
			if lvl > 0 {
				sendUp(sum)
			}
		}
	}
	payload := append([]BranchSummary(nil), st.summary...)
	for _, s := range computed {
		payload = append(payload, s)
	}
	return payload
}

// combineSummaries folds child summaries into a parent cell summary.
func combineSummaries(ck keys.CellKey, kids []BranchSummary, degree int) BranchSummary {
	out := BranchSummary{Key: ck.Uint64(), Owner: -1}
	for _, k := range kids {
		newMass := out.Mass + k.Mass
		if newMass > 0 {
			out.COM = out.COM.Scale(out.Mass / newMass).Add(k.COM.Scale(k.Mass / newMass))
		}
		out.Mass = newMass
		out.Count += k.Count
	}
	if degree >= 0 {
		e := phys.NewExpansion(degree, out.COM)
		for _, k := range kids {
			if k.Exp == nil {
				continue
			}
			ke, err := phys.ExpansionFromFloats(degree, k.Exp)
			if err == nil {
				e.Add(ke.TranslateTo(out.COM))
			}
		}
		out.Exp = e.Floats()
	}
	return out
}

// topMerge is one step's replicated global tree on this host. The machine
// merges the summaries on every processor (the redundant computation of the
// broadcast-based construction) and every rank is charged for it; the host
// merges them once per process, on whichever of its ranks gets there first,
// into a tree all of them read and none writes.
type topMerge struct {
	once  sync.Once
	root  *pnode
	cells *let.Cells // root's boxes and owner sets (LET only)
	flops float64    // the merge's modelled cost: a function of the summaries alone
	err   error
}

// buildTopPhase merges the exchanged branch summaries into the replicated
// global tree (the paper's "tree merging").
func (e *Engine) buildTopPhase(pr *msg.Proc, st *localState, gathered []any, m *topMerge) {
	m.once.Do(func() {
		m.root, m.flops, m.err = e.mergeTop(gathered)
		if m.err == nil && e.cfg.Shipping == LETShipping {
			m.cells = let.NewCells(e.domain, pr.NumProcs())
			topCells(m.cells, m.root)
		}
	})
	if m.err != nil {
		panic(m.err)
	}
	pr.Compute(m.flops)
	st.top, st.cells = m.root, m.cells
}

// mergeTop builds the replicated tree from every rank's summaries and
// returns it with the modelled flop cost of the merge. Under the
// non-replicated construction the internal top cells take the summaries
// their designated owners computed, and nothing is charged: that work
// happened once, at those owners.
func (e *Engine) mergeTop(gathered []any) (*pnode, float64, error) {
	deg := -1
	if e.cfg.Mode == PotentialMode {
		deg = e.cfg.Degree
	}
	var all []BranchSummary
	precomputed := make(map[uint64]BranchSummary)
	branchLevel := -1 // of the static clusters; every cell above one was precomputed
	if e.nonReplicated() {
		branchLevel = e.cfg.GridLog2
	}
	for _, g := range gathered {
		for _, s := range g.([]BranchSummary) {
			if lvl := int(keys.CellKeyFromUint64(s.Key).Level); lvl < branchLevel {
				precomputed[s.Key] = s
			} else {
				all = append(all, s)
			}
		}
	}
	top, flops, err := buildTop(e.domain, all, deg, e.cfg.LeafCap)
	if err != nil || branchLevel < 0 {
		return top, flops, err
	}
	var apply func(n *pnode)
	apply = func(n *pnode) {
		if n == nil {
			return
		}
		if s, ok := precomputed[n.cell.Uint64()]; ok {
			n.mass, n.com, n.count = s.Mass, s.COM, int(s.Count)
			if deg >= 0 && s.Exp != nil {
				if e, err2 := phys.ExpansionFromFloats(deg, s.Exp); err2 == nil {
					n.exp = e
				}
			}
		}
		for _, c := range n.children {
			apply(c)
		}
	}
	apply(top)
	return top, 0, nil
}

// loadBalance performs the scheme's end-of-step rebalancing and particle
// redistribution; it returns the (identical on all processors) new
// cluster ownership for SPDA and the new boundary keys for DPDA.
func (e *Engine) loadBalance(pr *msg.Proc, st *localState) ([]int, []uint64) {
	switch e.cfg.Scheme {
	case SPSA:
		// Static assignment: load balance is implicit (Table 3 reports 0).
		return nil, nil
	case SPDA:
		return e.balanceSPDA(pr, st), nil
	default:
		return nil, e.balanceDPDA(pr, st)
	}
}

// balanceSPDA implements Section 3.3.2: cluster loads are summed
// globally, and clusters are re-assigned along the curve ordering in
// contiguous runs of ~W/p load; particles move with one all-to-all.
func (e *Engine) balanceSPDA(pr *msg.Proc, st *localState) []int {
	p := pr.NumProcs()
	r := e.grid.NumClusters()
	deg := e.cfg.degreeOrMonopole()
	loads := make([]float64, r)
	for _, b := range st.branches {
		x, y, z := keys.Decode3(st.tree.Cell(b).Key)
		c := e.grid.Index(int(x), int(y), int(z))
		loads[c] = flopLoad(st.tree, b, deg)
	}
	for _, q := range st.parts {
		loads[e.grid.ClusterOf(q.Pos)] += st.extraLoad[q.ID]
	}
	pr.Compute(float64(len(st.branches))*20 + float64(len(st.parts))*2)
	total := pr.SumF64(loads)
	starts := partition.RunsByLoad(e.clusOrder, total, p)
	newOwner := partition.OwnerFromRuns(e.clusOrder, starts, r)
	pr.Compute(float64(r) * 4)

	// Move particles to their new owners now so the next step's migrate
	// is a no-op.
	st.parts = e.exchangeParticles(pr, e.keepOwn(st.me, st.parts, func(q dist.Particle) int {
		return newOwner[e.grid.ClusterOf(q.Pos)]
	}))
	return newOwner
}

// balanceDPDA implements Section 3.3.3 (costzones on message-passing
// machines): per-particle load shares are derived from the tree's
// interaction counters, global load boundaries i·W/p are located in the
// concatenated Morton order, and particles move with a single all-to-all
// personalized communication.
func (e *Engine) balanceDPDA(pr *msg.Proc, st *localState) []uint64 {
	p := pr.NumProcs()
	// Per-particle shares in local Morton order: each branch subtree is
	// walked with ancestors' own loads spread over their particles. The
	// branches' leaves hold, end to end, the (key, ID)-sorted particles
	// migrate left in st.parts, so share i is st.parts[i]'s.
	deg := e.cfg.degreeOrMonopole()
	sc := &e.scratch[st.me]
	sc.shares = sc.shares[:0]
	for _, b := range st.branches {
		sc.shares = collectShares(st.tree, b, deg, 0, sc.shares)
	}
	shares, order := sc.shares, st.parts
	if len(shares) != len(order) {
		panic(fmt.Sprintf("parbh: rank %d: %d load shares for %d particles", st.me, len(shares), len(order)))
	}
	for i := range order {
		shares[i] += st.extraLoad[order[i].ID]
	}
	pr.Compute(float64(len(shares)) * 10)
	var myLoad float64
	for _, s := range shares {
		myLoad += s
	}
	// Global prefix over rank order (= global Morton order). Gather the
	// measured load and the particle count together so the first step
	// (no recorded loads yet) can fall back to count-balancing.
	perProc := pr.AllGather([2]float64{myLoad, float64(len(order))}, 2)
	var offset, w, cntOffset, cntTotal float64
	for rank := 0; rank < p; rank++ {
		pair := perProc[rank].([2]float64)
		if rank < st.me {
			offset += pair[0]
			cntOffset += pair[1]
		}
		w += pair[0]
		cntTotal += pair[1]
	}
	useCounts := w <= 0
	if useCounts {
		w, offset = cntTotal, cntOffset
	}
	if w == 0 {
		w = 1 // empty system; zones stay as they are
	}
	// New zone per particle (midpoint rule), with same-key snapping. The
	// stayers go straight into the array migrate assembled, dead since the
	// builder sorted it, and the arrivals after them.
	buckets := sc.buckets
	stay := st.spare[:0]
	acc := offset
	prevZone := -1
	var prevKey uint64
	for i, q := range order {
		share := shares[i]
		if useCounts {
			share = 1
		}
		zone := int((acc + share/2) / w * float64(p))
		if zone >= p {
			zone = p - 1
		}
		k := keys.FullKey3(q.Pos, e.domain)
		if prevZone >= 0 && k == prevKey && zone != prevZone {
			zone = prevZone // keep identical keys together
		}
		if zone == st.me {
			stay = append(stay, q)
		} else {
			buckets[zone] = append(buckets[zone], q)
		}
		acc += share
		prevZone, prevKey = zone, k
	}
	mine := e.exchangeParticles(pr, stay)
	st.parts, st.spare = mine, nil
	// New boundary keys: the smallest key per processor; empty zones
	// inherit the next processor's boundary. The stayers and each sender's
	// arrivals are runs in key order, but the stayers come first, so
	// mine[0] need not hold the smallest key.
	first := ^uint64(0)
	for _, q := range mine {
		first = min(first, keys.FullKey3(q.Pos, e.domain))
	}
	gathered := pr.AllGather(first, 1)
	bounds := make([]uint64, p)
	for rank := 0; rank < p; rank++ {
		bounds[rank] = gathered[rank].(uint64)
	}
	bounds[0] = 0
	for i := p - 1; i > 0; i-- {
		if bounds[i] == ^uint64(0) {
			if i == p-1 {
				bounds[i] = ^uint64(0) - 1
			} else {
				bounds[i] = bounds[i+1]
			}
		}
	}
	return bounds
}

// collectShares walks the subtree under node n of t in Morton order
// appending one load share per particle in flop units, spreading internal
// nodes' own interaction counts over their subtrees (as in
// partition.Costzones, but local). Loads are converted to flops — leaf
// counters record particle–particle work, internal counters
// particle–cluster work — so that balancing the shares balances modelled
// compute time.
func collectShares(t *tree.Tree, n int32, deg int, extraPerParticle float64, shares []float64) []float64 {
	count := t.Count(n)
	if count == 0 {
		return shares
	}
	if t.IsLeaf(n) {
		leafLoad := float64(t.Load[n])*phys.PPFlops + extraPerParticle*float64(count)
		per := leafLoad / float64(count)
		for range count {
			shares = append(shares, per)
		}
		return shares
	}
	nodeFlops := float64(t.Load[n]) * (phys.InteractionFlops(deg) + phys.MACFlops)
	childExtra := extraPerParticle + nodeFlops/float64(count)
	for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
		shares = collectShares(t, c, deg, childExtra, shares)
	}
	return shares
}

// flopLoad converts the raw interaction counters of the subtree under node
// n of t into modelled flops: leaves hold particle–particle counts,
// internal nodes particle–cluster (plus MAC) counts.
func flopLoad(t *tree.Tree, n int32, deg int) float64 {
	var f float64
	if t.IsLeaf(n) {
		f = float64(t.Load[n]) * phys.PPFlops
	} else {
		f = float64(t.Load[n]) * (phys.InteractionFlops(deg) + phys.MACFlops)
	}
	for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
		f += flopLoad(t, c, deg)
	}
	return f
}
