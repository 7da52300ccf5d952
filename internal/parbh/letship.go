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
// Receivers graft the sections, where they arrived, under the branch cells
// of the process's linearization of the replicated tree (topFlat) and the
// force phase becomes a purely local, host-parallel traversal — no
// mid-phase communication, no request/reply latency to hide.
//
// After the traversal, one all-to-all returns per-node Load deltas so the
// owner's subtree sees exactly the counters a function-shipping step
// would have produced — the load-balancing schemes evolve identically.
// Sections are rebuilt and shipped whole every step: the bodies moved.
//
// Simulated accelerations, potentials, and aggregate Stats are
// bit-identical to function shipping: one tree.Sweep over a let.Flat
// replays its floating-point reduction order. Per-rank SimTime
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

	// Graft the sections where they arrived, each under its branch cell in
	// the owner's slot (the function-shipping slot order); the rank's own
	// cells resolve to its tree.
	fl := e.letFlat(st.me)
	st.flat.reset(fl, st)
	grafted := 0
	for owner := 0; owner < p; owner++ {
		if owner == st.me {
			continue
		}
		for _, sec := range replies[owner].(letShipMsg).Secs {
			if withExp {
				if err := sec.DecodeExp(cfg.Degree); err != nil {
					panic(fmt.Sprintf("parbh: LET section from rank %d: %v", owner, err))
				}
			}
			b, ok := st.flat.ordOf[sec.BranchKey]
			slot := -1
			if ok {
				slot = st.flat.slot(b, owner)
			}
			if slot < 0 {
				panic(fmt.Sprintf("parbh: LET section from rank %d for branch %x, which it does not own", owner, sec.BranchKey))
			}
			fl.AddSection(owner, sec, b, slot)
			grafted += sec.NumNodes()
			if e.onGraft != nil {
				e.onGraft(sec)
			}
		}
	}
	pr.Compute(2 * float64(grafted))
	fl.Seal()
	st.letFlat = fl
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
	e.startExtraLoad(st)

	if cfg.Mode == ForceMode {
		out := make([]vec.V3, n)
		s := fl.ForceAll(st.parts, cfg.Alpha, cfg.Eps, exAdd, out, st.extraLoad)
		st.stats.Add(s)
		pr.Compute(s.Flops(deg))
		for i := range st.parts {
			res.Accels[st.parts[i].ID] = out[i]
		}
	} else {
		out := make([]float64, n)
		s := fl.PotentialAll(st.parts, cfg.Alpha, exAdd, out, st.extraLoad)
		st.stats.Add(s)
		pr.Compute(s.Flops(deg))
		for i := range st.parts {
			res.Potentials[st.parts[i].ID] = out[i]
		}
	}
	e.letReturnLoads(pr, st, fl)
	fl.Release()
	st.forceT = pr.Stats().ComputeTime - t0
}

// letReturnLoads ships per-node Load deltas back to section owners and
// applies incoming deltas to this rank's sent nodes, so every tree node
// ends the step with exactly the Load a function-shipping step charges.
func (e *Engine) letReturnLoads(pr *msg.Proc, st *localState, fl *let.Flat) {
	p := pr.NumProcs()
	msgs := make([]letLoadMsg, p)
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
