// Package parfmm is the parallel fast multipole method: the extension the
// paper's Sections 2 and 6 point to ("Parallel formulations of FMM and
// the Barnes–Hut method are similar... the techniques can be extended to
// FMM"). It applies the paper's machinery to the FMM's cluster–cluster
// interactions on the same simulated message-passing machine:
//
//   - the domain is decomposed into Morton zones (the DPDA bootstrap) and
//     each processor builds the subtrees under its branch cells;
//   - branch summaries carry multipole expansions and are all-to-all
//     broadcast, so *every far-field cell–cell (M2L) interaction is
//     computed locally* — the replicated expansions play the role the
//     centre-of-mass summaries play for Barnes–Hut;
//   - only near-field work crosses processors, and it crosses in the
//     function-shipping direction: a target leaf's particles are shipped
//     to the owner of an unexpandable remote source cell, which refines
//     its subtree against the ghost leaf (M2L into a ghost local, P2P at
//     its leaves), evaluates, and ships per-particle potentials back;
//   - the exchange is one all-to-all personalized round (requests are
//     one-deep, exactly as in the Barnes–Hut engine).
//
// Every step that stays on one rank is the serial FMM's fmm.Kernel over
// the rank's tree, charging the rank's clock; this package keeps what is
// distributed: the summary all-gather, the replicated top, the pairing
// against remote cells, and ghost shipping and serving. On one rank the
// run is the serial FMM's, bit for bit.
package parfmm

import (
	"repro/internal/dist"
	"repro/internal/fmm"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/partition"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Config parameterizes the parallel FMM exactly as it does the serial one.
type Config = fmm.Config

// Stats counts the work of one evaluation across all processors.
type Stats struct {
	M2L     int64 // cell–cell conversions (local + served)
	P2P     int64 // particle–particle interactions
	Shipped int64 // ghost-leaf requests shipped
}

// Result reports one parallel evaluation.
type Result struct {
	// Potentials indexed by particle ID.
	Potentials []float64
	// SimTime is the simulated parallel completion time.
	SimTime float64
	// SeqTime is the projected one-processor time from the op counts.
	SeqTime float64
	// Efficiency = SeqTime / (p · SimTime).
	Efficiency float64
	// CommWords is the total simulated communication volume.
	CommWords int64
	// Stats aggregates the op counts.
	Stats Stats
}

// branchSummary is the broadcast record: cell identity plus the
// multipole expansion about the cell centre.
type branchSummary struct {
	Key   uint64
	Owner int32
	Count int32
	Exp   []float64
}

func (b branchSummary) words() int { return 4 + len(b.Exp) }

// fnode is a node of the replicated global tree.
type fnode struct {
	cell     keys.CellKey
	box      vec.Box
	count    int
	radius   float64
	exp      *phys.Expansion
	children [8]*fnode
	owners   []int
	local    int32 // local branch subtree root in procRun.tree, -1 for none
}

func (n *fnode) hasChildren() bool {
	for _, c := range n.children {
		if c != nil {
			return true
		}
	}
	return false
}

// ghostEntry ships one target leaf to the owner of source cell SrcKey.
type ghostEntry struct {
	SrcKey uint64
	Center vec.V3
	Radius float64
	IDs    []int32
	Pos    []vec.V3
}

func (g ghostEntry) words() int { return 6 + 4*len(g.IDs) }

// ghostReply carries per-particle potentials, aligned with the request.
type ghostReply struct {
	Pots []float64
}

// Run executes one parallel FMM potential evaluation.
func Run(machine *msg.Machine, set *dist.Set, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	p := machine.P
	if set.N() == 0 {
		return &Result{Potentials: nil}, nil
	}
	domain := set.Domain.Cube()

	// Morton-zone bootstrap (the DPDA initial distribution).
	ps, ks := tree.SortByKey(set.Particles, domain)
	starts, bounds := partition.EqualCountZones(ks, p)

	res := &Result{Potentials: make([]float64, set.N())}
	procStats := make([]Stats, p)

	machineStats := machine.Run(func(pr *msg.Proc) {
		me := pr.ID()
		st := &procRun{
			cfg: cfg, pr: pr, domain: domain, out: res.Potentials,
		}
		lo := bounds[me]
		hi := ^uint64(0)
		if me+1 < p {
			hi = bounds[me+1]
		}
		st.run(ps[starts[me]:starts[me+1]], lo, hi)
		procStats[me] = Stats{M2L: st.k.Stats.M2L, P2P: st.k.Stats.P2P, Shipped: st.shipped}
	})

	for _, s := range procStats {
		res.Stats.M2L += s.M2L
		res.Stats.P2P += s.P2P
		res.Stats.Shipped += s.Shipped
	}
	res.SimTime = msg.MaxTime(machineStats)
	res.CommWords = msg.TotalWords(machineStats)
	n := float64(set.N())
	seqFlops := float64(res.Stats.M2L)*phys.M2LFlops(cfg.Degree) +
		float64(res.Stats.P2P)*8 +
		n*(phys.P2MFlops(cfg.Degree)+phys.L2PFlops(cfg.Degree)) +
		4*n/float64(cfg.LeafCap)*(phys.M2MFlops(cfg.Degree)+phys.L2LFlops(cfg.Degree))
	res.SeqTime = seqFlops / machine.Profile.FlopRate
	if res.SimTime > 0 {
		res.Efficiency = res.SeqTime / (float64(p) * res.SimTime)
	}
	return res, nil
}

// procRun is one processor's working state.
type procRun struct {
	cfg     Config
	pr      *msg.Proc
	domain  vec.Box
	out     []float64 // shared result array (distinct IDs per proc)
	shipped int64     // ghost-leaf requests shipped

	tree     *tree.Tree       // the local tree, pushed-down fragments included
	k        *fmm.Kernel      // the FMM kernel over tree, charging pr's clock
	branches []int32          // its branch subtree roots
	lookup   map[uint64]int32 // packed key -> branch root
	top      *fnode
	reqs     [][]ghostEntry // per destination
}

func (st *procRun) run(mine []dist.Particle, lo, hi uint64) {
	pr := st.pr
	cfg := st.cfg
	p := pr.NumProcs()

	// 1. Local tree and branch extraction (maximal cells in [lo, hi)).
	local := tree.BuildKeyed(mine, st.domain, cfg.LeafCap)
	st.tree = local
	st.lookup = make(map[uint64]int32)
	local.MaximalCells(0, lo, hi, func(n int32) {
		st.branches = append(st.branches, n)
		st.lookup[local.Key[n]] = n
	})
	st.k = fmm.NewKernel(local, cfg, pr.Compute)
	st.k.Pot = st.out
	pr.Compute(float64(local.ParticleLevels(0)) * phys.TreeInsertFlops)

	// 2. Upward pass: multipoles about cell centres per branch subtree.
	var summaries []branchSummary
	words := 0
	for _, b := range st.branches {
		st.k.Upward(b)
		sum := branchSummary{
			Key: local.Key[b], Owner: int32(pr.ID()), Count: int32(local.Count(b)),
			Exp: local.Exp[b].Floats(),
		}
		summaries = append(summaries, sum)
		words += sum.words()
	}

	// 3. All-to-all broadcast of branch summaries; build the replicated
	// top tree with expansions.
	gathered := pr.AllGather(summaries, words)
	var all []branchSummary
	for _, g := range gathered {
		all = append(all, g.([]branchSummary)...)
	}
	st.top = st.buildTop(all)

	// 4. Dual tree traversal: my branch subtrees against the global tree.
	st.reqs = make([][]ghostEntry, p)
	for _, b := range st.branches {
		st.interact(b, st.top)
	}

	// 5. One personalized exchange of ghost requests; serve; return.
	payloads := make([]any, p)
	wordsOut := make([]int, p)
	for dst := range st.reqs {
		w := 0
		for _, g := range st.reqs[dst] {
			w += g.words()
		}
		payloads[dst] = st.reqs[dst]
		wordsOut[dst] = w + 1
		st.shipped += int64(len(st.reqs[dst]))
	}
	recvReq := pr.AllToAll(payloads, wordsOut)
	repPayloads := make([]any, p)
	repWords := make([]int, p)
	for src := 0; src < p; src++ {
		entries := recvReq[src].([]ghostEntry)
		reps := make([]ghostReply, len(entries))
		w := 0
		for i, g := range entries {
			reps[i] = st.serveGhost(g)
			w += len(reps[i].Pots)
		}
		repPayloads[src] = reps
		repWords[src] = w + 1
	}
	recvRep := pr.AllToAll(repPayloads, repWords)
	// Accumulate replies in deterministic (destination, entry) order.
	for dst := 0; dst < p; dst++ {
		reps := recvRep[dst].([]ghostReply)
		for i, g := range st.reqs[dst] {
			for j, id := range g.IDs {
				st.out[id] += reps[i].Pots[j]
			}
		}
	}

	// 6. Downward pass: L2L to the leaves, L2P per particle.
	for _, b := range st.branches {
		st.k.Downward(b)
	}
	pr.Barrier()
}

// buildTop assembles the replicated tree with expansions at every node.
func (st *procRun) buildTop(all []branchSummary) *fnode {
	root := &fnode{cell: keys.CellKey{}, box: st.domain, local: -1}
	for _, s := range all {
		if s.Count == 0 {
			continue
		}
		ck := keys.CellKeyFromUint64(s.Key)
		n := root
		for lvl := 0; lvl < int(ck.Level); lvl++ {
			oct := int(ck.Key>>(3*uint(int(ck.Level)-lvl-1))) & 7
			if n.children[oct] == nil {
				n.children[oct] = &fnode{cell: n.cell.Child(oct), box: n.box.Octant(oct), local: -1}
			}
			n = n.children[oct]
		}
		n.count += int(s.Count)
		if ex, err := phys.ExpansionFromFloats(st.cfg.Degree, s.Exp); err == nil {
			if n.exp == nil {
				n.exp = ex
			} else {
				n.exp.Add(ex.TranslateTo(n.exp.Center))
			}
		}
		if int(s.Owner) == st.pr.ID() {
			if b, ok := st.lookup[s.Key]; ok {
				n.local = b
			}
		} else {
			n.owners = append(n.owners, int(s.Owner))
		}
	}
	// Upward pass: internal top cells aggregate counts and expansions
	// from their children (branch cells keep their broadcast values).
	var up func(n *fnode)
	up = func(n *fnode) {
		n.radius = n.box.Size().Norm() / 2
		if n.exp != nil {
			return // branch cell: expansion came from the summary
		}
		e := phys.NewExpansion(st.cfg.Degree, n.box.Center())
		for _, c := range n.children {
			if c == nil {
				continue
			}
			up(c)
			if c.exp != nil && c.count > 0 {
				e.Add(c.exp.TranslateTo(e.Center))
				st.pr.Compute(phys.M2MFlops(st.cfg.Degree))
			}
			n.count += c.count
		}
		n.exp = e
	}
	up(root)
	return root
}

// interact runs the dual traversal of a local target subtree against the
// replicated source tree; where the source is a branch of this rank's
// own, it is the kernel's local pairing.
func (st *procRun) interact(tc int32, sc *fnode) {
	t, k := st.tree, st.k
	if t.Count(tc) == 0 || sc == nil || sc.count == 0 {
		return
	}
	// Identical cell (my own branch within the replicated tree): descend
	// into the purely local pairing.
	if sc.local == tc {
		k.Interact(tc, tc)
		return
	}
	if st.cfg.Separated(k.Center(tc), k.Radius(tc), sc.box.Center(), sc.radius) {
		k.M2L(k.Local(tc), sc.exp)
		return
	}
	if sc.local >= 0 {
		// Source is one of my own branch subtrees: pure local pairing.
		k.Interact(tc, sc.local)
		return
	}
	if sc.hasChildren() {
		// Prefer splitting the larger side when both can split.
		if !t.IsLeaf(tc) && k.Radius(tc) >= sc.radius {
			for c := tc + 1; c < t.Skip[tc]; c = t.Skip[c] {
				st.interact(c, sc)
			}
			return
		}
		for _, c := range sc.children {
			if c != nil {
				st.interact(tc, c)
			}
		}
		return
	}
	// Source is an unexpandable remote branch cell.
	if !t.IsLeaf(tc) {
		for c := tc + 1; c < t.Skip[tc]; c = t.Skip[c] {
			st.interact(c, sc)
		}
		return
	}
	// Ship the target leaf to every owner of the source cell.
	for _, o := range sc.owners {
		g := ghostEntry{SrcKey: sc.cell.Uint64(), Center: k.Center(tc), Radius: k.Radius(tc)}
		for _, q := range t.Particles(tc) {
			g.IDs = append(g.IDs, int32(q.ID))
			g.Pos = append(g.Pos, q.Pos)
		}
		st.reqs[o] = append(st.reqs[o], g)
	}
}

// serveGhost refines this processor's subtree under the requested cell
// against a shipped target leaf: M2L contributions are collected in a
// ghost local expansion, leaf pairs run P2P directly; the reply is the
// evaluated per-particle potential.
func (st *procRun) serveGhost(g ghostEntry) ghostReply {
	rep := ghostReply{Pots: make([]float64, len(g.IDs))}
	t, k := st.tree, st.k
	root, ok := st.lookup[g.SrcKey]
	if !ok {
		return rep
	}
	ghost := phys.NewLocal(st.cfg.Degree, g.Center)
	var rec func(sc int32)
	rec = func(sc int32) {
		if t.Count(sc) == 0 {
			return
		}
		if st.cfg.Separated(g.Center, g.Radius, k.Center(sc), k.Radius(sc)) {
			k.M2L(ghost, t.Exp[sc])
			return
		}
		if t.IsLeaf(sc) {
			sps := t.Particles(sc)
			for j := range sps {
				sj := &sps[j]
				for i := range g.IDs {
					if int(g.IDs[i]) == sj.ID {
						continue
					}
					rep.Pots[i] += phys.Potential(g.Pos[i], sj.Pos, sj.Mass, 0)
					k.Stats.P2P++
				}
			}
			st.pr.Compute(float64(len(sps)*len(g.IDs)) * 8)
			return
		}
		for c := sc + 1; c < t.Skip[sc]; c = t.Skip[c] {
			rec(c)
		}
	}
	rec(root)
	for i := range g.IDs {
		rep.Pots[i] += ghost.EvalPotential(g.Pos[i])
	}
	st.pr.Compute(float64(len(g.IDs)) * phys.L2PFlops(st.cfg.Degree))
	return rep
}
