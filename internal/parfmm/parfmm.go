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
package parfmm

import (
	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/partition"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Config parameterizes the parallel FMM.
type Config struct {
	// Degree of the multipole/local expansions (default 4).
	Degree int
	// Theta is the cell–cell acceptance parameter (default 0.6).
	Theta float64
	// LeafCap is the octree leaf capacity (default 16).
	LeafCap int
}

func (c Config) withDefaults() Config {
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.LeafCap == 0 {
		c.LeafCap = 16
	}
	return c
}

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

// message tags.
const (
	tagGhostReq = 1
	tagGhostRep = 2
)

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
	cfg = cfg.withDefaults()
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
		procStats[me] = st.stats
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
	cfg    Config
	pr     *msg.Proc
	domain vec.Box
	out    []float64 // shared result array (distinct IDs per proc)
	stats  Stats

	tree     *tree.Tree       // the local tree, pushed-down fragments included
	boxes    []vec.Box        // per node of tree
	branches []int32          // its branch subtree roots
	locals   []*phys.Local    // per node of tree
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
	st.boxes = local.Boxes(nil)
	pr.Compute(float64(local.ParticleLevels(0)) * phys.TreeInsertFlops)

	// 2. Upward pass: multipoles about cell centres per branch subtree.
	st.locals = make([]*phys.Local, local.NumNodes())
	var summaries []branchSummary
	words := 0
	for _, b := range st.branches {
		st.buildMultipoles(b)
		pr.Compute(float64(local.Count(b))*phys.P2MFlops(cfg.Degree) +
			float64(local.CountNodes(b))*phys.M2MFlops(cfg.Degree))
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
		st.stats.Shipped += int64(len(st.reqs[dst]))
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
		st.downward(b)
	}
	pr.Barrier()
}

// buildMultipoles builds the multipole expansion about the cell centre of
// every node under n, in the tree's Exp column, and an empty local
// expansion beside each.
func (st *procRun) buildMultipoles(n int32) {
	t, degree := st.tree, st.cfg.Degree
	if t.Count(n) == 0 {
		return
	}
	center := st.boxes[n].Center()
	e := phys.NewExpansion(degree, center)
	if t.IsLeaf(n) {
		for _, q := range t.Particles(n) {
			e.AddParticle(q.Mass, q.Pos)
		}
	} else {
		for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
			st.buildMultipoles(c)
			e.Add(t.Exp[c].TranslateTo(e.Center))
		}
	}
	t.Exp[n] = e
	st.locals[n] = phys.NewLocal(degree, center)
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

// accepted is the cell–cell acceptance criterion.
func (st *procRun) accepted(tc int32, sc *fnode) bool {
	box := st.boxes[tc]
	tr := box.Size().Norm() / 2
	d := box.Center().Dist(sc.box.Center())
	if d == 0 {
		return false
	}
	return (tr+sc.radius)/d < st.cfg.Theta
}

// acceptedLocal is accepted for two local tree nodes.
func (st *procRun) acceptedLocal(tc, sc int32) bool {
	tbox, sbox := st.boxes[tc], st.boxes[sc]
	tr := tbox.Size().Norm() / 2
	sr := sbox.Size().Norm() / 2
	d := tbox.Center().Dist(sbox.Center())
	if d == 0 {
		return false
	}
	return (tr+sr)/d < st.cfg.Theta
}

// interact runs the dual traversal of a local target subtree against the
// replicated source tree.
func (st *procRun) interact(tc int32, sc *fnode) {
	t := st.tree
	if t.Count(tc) == 0 || sc == nil || sc.count == 0 {
		return
	}
	// Identical cell (my own branch within the replicated tree): descend
	// into the purely local pairing.
	if sc.local == tc {
		st.interactLocal(tc, tc)
		return
	}
	if st.accepted(tc, sc) {
		st.locals[tc].AddMultipole(sc.exp)
		st.stats.M2L++
		st.pr.Compute(phys.M2LFlops(st.cfg.Degree))
		return
	}
	if sc.local >= 0 {
		// Source is one of my own branch subtrees: pure local pairing.
		st.interactLocal(tc, sc.local)
		return
	}
	if sc.hasChildren() {
		// Prefer splitting the larger side when both can split.
		if !t.IsLeaf(tc) && st.boxes[tc].Size().Norm()/2 >= sc.radius {
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
	box := st.boxes[tc]
	for _, o := range sc.owners {
		g := ghostEntry{
			SrcKey: sc.cell.Uint64(),
			Center: box.Center(),
			Radius: box.Size().Norm() / 2,
		}
		for _, q := range t.Particles(tc) {
			g.IDs = append(g.IDs, int32(q.ID))
			g.Pos = append(g.Pos, q.Pos)
		}
		st.reqs[o] = append(st.reqs[o], g)
	}
}

// interactLocal is the dual traversal between two local subtrees.
func (st *procRun) interactLocal(tc, sc int32) {
	t := st.tree
	if t.Count(tc) == 0 || t.Count(sc) == 0 {
		return
	}
	if tc != sc && st.acceptedLocal(tc, sc) {
		st.locals[tc].AddMultipole(t.Exp[sc])
		st.stats.M2L++
		st.pr.Compute(phys.M2LFlops(st.cfg.Degree))
		return
	}
	tLeaf, sLeaf := t.IsLeaf(tc), t.IsLeaf(sc)
	if tLeaf && sLeaf {
		st.p2p(tc, sc)
		return
	}
	if sLeaf || (!tLeaf && st.boxes[tc].Size().Norm() >= st.boxes[sc].Size().Norm()) {
		for c := tc + 1; c < t.Skip[tc]; c = t.Skip[c] {
			st.interactLocal(c, sc)
		}
		return
	}
	for c := sc + 1; c < t.Skip[sc]; c = t.Skip[c] {
		st.interactLocal(tc, c)
	}
}

// p2p accumulates near-field potentials of source leaf sc onto target
// leaf tc's particles.
func (st *procRun) p2p(tc, sc int32) {
	tps, sps := st.tree.Particles(tc), st.tree.Particles(sc)
	for i := range tps {
		ti := &tps[i]
		var phi float64
		for j := range sps {
			sj := &sps[j]
			if sj.ID == ti.ID {
				continue
			}
			phi += phys.Potential(ti.Pos, sj.Pos, sj.Mass, 0)
			st.stats.P2P++
		}
		st.out[ti.ID] += phi
	}
	st.pr.Compute(float64(len(tps)*len(sps)) * 8)
}

// serveGhost refines this processor's subtree under the requested cell
// against a shipped target leaf: M2L contributions are collected in a
// ghost local expansion, leaf pairs run P2P directly; the reply is the
// evaluated per-particle potential.
func (st *procRun) serveGhost(g ghostEntry) ghostReply {
	rep := ghostReply{Pots: make([]float64, len(g.IDs))}
	t := st.tree
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
		box := st.boxes[sc]
		sr := box.Size().Norm() / 2
		d := g.Center.Dist(box.Center())
		if d > 0 && (g.Radius+sr)/d < st.cfg.Theta {
			ghost.AddMultipole(t.Exp[sc])
			st.stats.M2L++
			st.pr.Compute(phys.M2LFlops(st.cfg.Degree))
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
					st.stats.P2P++
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

// downward pushes locals to the leaves and evaluates.
func (st *procRun) downward(n int32) {
	t := st.tree
	if t.Count(n) == 0 {
		return
	}
	lo := st.locals[n]
	if t.IsLeaf(n) {
		ps := t.Particles(n)
		for i := range ps {
			st.out[ps[i].ID] += lo.EvalPotential(ps[i].Pos)
		}
		st.pr.Compute(float64(len(ps)) * phys.L2PFlops(st.cfg.Degree))
		return
	}
	for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
		st.locals[c].Add(lo.TranslateTo(st.locals[c].Center))
		st.pr.Compute(phys.L2LFlops(st.cfg.Degree))
		st.downward(c)
	}
}
