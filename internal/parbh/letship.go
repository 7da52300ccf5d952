package parbh

import (
	"fmt"

	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/vec"
)

// Locally-essential-tree force engine (Dubinski). The step gains one
// phase between tree merging and force computation: every rank broadcasts
// the bounding box of its particles, walks each of its local branch
// subtrees against every peer's domain to serialize the essential set, and
// ships one bulk message per peer. A peer's domain is its bounding box plus
// its branch cells, which the replicated top tree already lists with their
// owners (topMerge builds their boxes and per-node owner sets once per
// process, as let.Cells). An internal node is summarized the moment the MAC
// provably accepts it from anywhere in the box, or else from anywhere in
// each of the peer's cells clipped to the box — the domain-opening
// criterion; every cell test beyond a node's first is charged as a MAC.
// Receivers graft the sections beside a flat linearization of the
// replicated tree and the force phase becomes a purely local,
// host-parallel traversal — no mid-phase communication, no request/reply
// latency to hide.
//
// After the traversal, one all-to-all returns per-node Load deltas so the
// owner's subtree sees exactly the counters a function-shipping step
// would have produced — the load-balancing schemes evolve identically.
// Sections are rebuilt and shipped whole every step: the bodies moved.
//
// Simulated accelerations, potentials, and aggregate Stats are
// bit-identical to function shipping: the kernels in internal/let replay
// its floating-point reduction order (see let.Flat). Per-rank SimTime
// and comm volume differ by construction — that difference is the
// measurement.

// letPair names one shipped section: the remote rank and the packed
// branch cell key (the Morton path).
type letPair struct {
	peer int
	key  uint64
}

// letShipMsg is one peer's bulk essential-set delivery.
type letShipMsg struct {
	Secs []*let.Section
}

// letLoadMsg returns per-node Load deltas to section owners; parallel
// arrays, one entry per (branch, ordinal) with a non-zero delta.
type letLoadMsg struct {
	Keys   []uint64
	Nodes  []int32
	Deltas []int64
}

// letFlat returns rank's reusable flat essential tree.
func (e *Engine) letFlat(rank int) *let.Flat {
	if e.letFlats[rank] == nil {
		e.letFlats[rank] = &let.Flat{}
	}
	return e.letFlats[rank]
}

// letExchange runs the LET exchange phase: bounds all-gather, essential
// walks, bulk section exchange, and construction of the rank's flat
// essential tree.
func (e *Engine) letExchange(pr *msg.Proc, st *localState) {
	p := pr.NumProcs()
	cfg := e.cfg
	withExp := cfg.Mode == PotentialMode

	// Per-rank particle bounding boxes. Actual particle bounds (not cell
	// bounds): the criterion must lower-bound the distances the peer's MAC
	// will compute from real particle coordinates.
	b := let.BoundsOf(st.parts)
	pr.Compute(2 * float64(len(st.parts)))
	gathered := pr.AllGather(b, let.BoundsWords)

	// Essential walk per peer.
	st.letSent = make(map[letPair][]int32)
	payloads := make([]any, p)
	words := make([]int, p)
	scratch := &e.scratch[st.me].section
	tests := 0
	for peer := 0; peer < p; peer++ {
		if peer == st.me {
			payloads[peer] = letShipMsg{}
			continue
		}
		dom := let.Domain{Bounds: gathered[peer].(let.Bounds), Cells: st.cells, Rank: peer}
		var secs []*let.Section
		w := 1
		for _, br := range st.branches {
			if st.tree.Count(br) == 0 {
				continue
			}
			alwaysShip := st.tree.Count(br) <= cfg.LeafCap // leaf cells are deferred without a MAC test
			sec, nodes, nt := let.BuildSection(st.tree, br, &dom, cfg.Alpha, withExp, alwaysShip, scratch)
			tests += nt
			if sec == nil {
				continue
			}
			pair := letPair{peer: peer, key: st.tree.Key[br]}
			sec.BranchKey = pair.key
			st.letSent[pair] = nodes
			secs = append(secs, sec)
			w += sec.WireWords()
		}
		payloads[peer] = letShipMsg{Secs: secs}
		words[peer] = w
	}
	pr.Compute(phys.MACFlops * float64(tests))
	replies := pr.AllToAll(payloads, words)

	// Decode sections and graft.
	fl := e.letFlat(st.me)
	fl.Reset()
	secIdx := make(map[letPair]int32)
	grafted := 0
	for owner := 0; owner < p; owner++ {
		if owner == st.me {
			continue
		}
		ship := replies[owner].(letShipMsg)
		for _, sec := range ship.Secs {
			exps := decodeSectionExps(sec, cfg.Degree, withExp)
			secIdx[letPair{peer: owner, key: sec.BranchKey}] = int32(fl.AddSection(owner, sec, exps))
			grafted += sec.NumNodes()
		}
	}
	pr.Compute(2 * float64(grafted))

	// Flatten the replicated tree: local subtrees inline, remote branches
	// carry graft references in owner order (the function-shipping slot
	// order).
	fl.BeginMain()
	flattenTop(fl, st, st.top, func(n *pnode, own int32) {
		if own >= 0 {
			fl.AddLocalSubtree(st.tree, own)
			return
		}
		grafts := make([]int32, len(n.owners))
		for i, o := range n.owners {
			if si, ok := secIdx[letPair{peer: o, key: n.cell.Uint64()}]; ok {
				grafts[i] = si
			} else {
				grafts[i] = -1 // owner proved the MAC accepts: defer would be a bug
			}
		}
		fl.AddBranch(n.leafCell, n.com, n.mass, n.side, n.exp, grafts)
	})
	fl.Seal()
	st.letFlat = fl
}

// decodeSectionExps rebuilds the per-node multipole expansions of a
// section (potential mode); nil in force mode.
func decodeSectionExps(sec *let.Section, degree int, withExp bool) []*phys.Expansion {
	if !withExp {
		return nil
	}
	exps := make([]*phys.Expansion, sec.NumNodes())
	stride := int(sec.ExpStride)
	off := 0
	for i, k := range sec.Kind {
		if k == let.NodeLeaf {
			continue
		}
		if off+stride > len(sec.Exp) {
			panic("parbh: LET section expansion columns truncated")
		}
		ex, err := phys.ExpansionFromFloats(degree, sec.Exp[off:off+stride])
		if err != nil {
			panic(fmt.Sprintf("parbh: LET section expansion decode: %v", err))
		}
		exps[i] = ex
		off += stride
	}
	if off != len(sec.Exp) {
		panic("parbh: LET section expansion columns misaligned")
	}
	return exps
}

// letForcePhase runs the purely local traversal over the flat essential
// tree, host-parallel within the rank, then returns section Load deltas
// to their owners.
func (e *Engine) letForcePhase(pr *msg.Proc, st *localState, res *Result) {
	t0 := pr.Stats().ComputeTime
	cfg := e.cfg
	deg := cfg.degreeOrMonopole()
	fl := st.letFlat
	n := len(st.parts)
	// The per-interaction extra-load addend: interactions against
	// replicated summaries have no local tree node to charge.
	exAdd := phys.InteractionFlops(deg) + phys.MACFlops
	extra := make([]float64, n)
	st.extraLoad = e.scratch[st.me].extraLoad
	clear(st.extraLoad)

	if cfg.Mode == ForceMode {
		out := make([]vec.V3, n)
		s := fl.ForceAll(st.parts, cfg.Alpha, cfg.Eps, exAdd, out, extra)
		st.stats.Add(s)
		pr.Compute(s.Flops(deg))
		for i := range st.parts {
			res.Accels[st.parts[i].ID] = out[i]
		}
	} else {
		out := make([]float64, n)
		s := fl.PotentialAll(st.parts, cfg.Alpha, exAdd, out, extra)
		st.stats.Add(s)
		pr.Compute(s.Flops(deg))
		for i := range st.parts {
			res.Potentials[st.parts[i].ID] = out[i]
		}
	}
	for i := range st.parts {
		if extra[i] != 0 {
			st.extraLoad[st.parts[i].ID] = extra[i]
		}
	}
	fl.ApplyLocalLoads()
	e.letReturnLoads(pr, st, fl)
	st.forceT = pr.Stats().ComputeTime - t0
}

// letReturnLoads ships per-node Load deltas back to section owners and
// applies incoming deltas to this rank's sent nodes, so every tree node
// ends the step with exactly the Load a function-shipping step charges.
func (e *Engine) letReturnLoads(pr *msg.Proc, st *localState, fl *let.Flat) {
	p := pr.NumProcs()
	counts := make([]int, p)
	for si := 0; si < fl.NumSections(); si++ {
		counts[fl.Section(si).Owner] += fl.NumSectionDeltas(si)
	}
	msgs := make([]letLoadMsg, p)
	for owner, n := range counts {
		if n > 0 {
			msgs[owner] = letLoadMsg{Keys: make([]uint64, 0, n), Nodes: make([]int32, 0, n), Deltas: make([]int64, 0, n)}
		}
	}
	for si := 0; si < fl.NumSections(); si++ {
		m := fl.Section(si)
		lm := &msgs[m.Owner]
		lm.Nodes, lm.Deltas = fl.SectionDeltas(si, lm.Nodes, lm.Deltas)
		for len(lm.Keys) < len(lm.Nodes) {
			lm.Keys = append(lm.Keys, m.Key)
		}
	}
	payloads := make([]any, p)
	words := make([]int, p)
	for i := 0; i < p; i++ {
		payloads[i] = msgs[i]
		words[i] = 3*len(msgs[i].Nodes) + 1
	}
	got := pr.AllToAll(payloads, words)
	for src := 0; src < p; src++ {
		lm := got[src].(letLoadMsg)
		for j := range lm.Nodes {
			sent := st.letSent[letPair{peer: src, key: lm.Keys[j]}]
			st.tree.Load[sent[lm.Nodes[j]]] += lm.Deltas[j]
		}
	}
}
