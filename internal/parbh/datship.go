package parbh

import (
	"fmt"
	"slices"

	"repro/internal/keys"
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Data-shipping force phase (Section 4.2): function shipping's requester
// side, with each slot function shipping would ship — (particle, branch,
// owner) — resolved where it arose by the owner's own service, Sweep.Below
// from the branch root, over a section of the cells fetched from the owner
// so far. Sections hold the owner's node values in its DFS order, so a pass
// that meets no missing cell is the owner's service to the bit.
//
// Fetching runs in waves. A slot whose branch root has not arrived asks
// for it; the other blocked slots are swept again, and a lane that rejects
// a stub (a cell whose children have not arrived) asks its owner for them.
// A wave's requests travel in one all-to-all, the replies in another, and
// the waves end when no rank asks for anything. DataShipping asks an owner
// for a cell once a wave — a best case whose volume still grows as Θ(k²)
// per cell (Section 4.2.1); DataShippingNaive is the per-visit baseline
// the paper argues against, one request per blocked visit.
//
// Each wave charges the flops its passes added over each slot's previous
// pass: sections only grow, so an interaction is charged once, in the wave
// it first became possible. A last pass over every slot yields the values,
// Stats and section Loads, which letReturnLoads returns as under LET.

// fetchedChild is one child cell shipped to a requester.
type fetchedChild struct {
	Sum       BranchSummary
	IsLeaf    bool
	Particles []wireParticle // leaf payload
}

func (f fetchedChild) words() int {
	if f.IsLeaf {
		return 4 * len(f.Particles) // id, mass, x, y, z packed — model 4 words
	}
	return f.Sum.Words()
}

// fetchedCell is the reply for one requested cell key.
type fetchedCell struct {
	Key      uint64
	Children []fetchedChild
}

// fetchSection is the section of one (branch, owner) slot group, emitted
// again from the replies whenever a wave adds cells to it.
type fetchSection struct {
	let.Section               // BranchKey names the branch
	owner          int        // the rank it is fetched from
	branch         int32      // the branch's ordinal in the replicated tree
	cells          []uint64   // per node: its cell key, which names a stub to its owner
	slots, blocked []dataSlot // its slots, in slot order; those still to resolve
	si             int        // its index in the rank's Flat; -1 until its root arrives
	grown          bool       // a reply arrived for it since it was last emitted
}

// dataSlot is one (particle, branch, owner) slot: the particle's index
// among the rank's, and the entry's in its owner's request — where its
// value goes for the fold.
type dataSlot struct{ part, at int32 }

// dataRun is one rank's data-shipping phase.
type dataRun struct {
	*shipRun
	naive  bool
	secs   []*fetchSection             // in order of their first slot
	prev   [][]tree.Stats              // per owner and entry: what its slot's last pass counted
	got    map[letPair][]fetchedChild  // replies by (owner, cell key)
	exps   map[letPair]*phys.Expansion // potential mode: the fetched cells' expansions
	asked  map[letPair]bool            // DataShipping: this wave's requests
	asks   [][]uint64                  // per owner: this wave's requests
	askSec [][]*fetchSection           // per owner: the section each request grows
}

// dataShipPhase runs the wave-synchronous data-shipping computation.
func (e *Engine) dataShipPhase(pr *msg.Proc, st *localState, res *Result) {
	t0 := pr.Stats().ComputeTime
	r := &shipRun{e: e, pr: pr, st: st, sh: &e.ship[st.me]}
	e.startExtraLoad(st)
	st.letSent = make(map[letPair][]int32)
	r.flatten()
	log := r.start()
	r.sweep(st.parts, st.extraLoad)
	var flops float64
	for _, f := range log.Flops {
		flops += f
	}
	pr.Compute(flops)

	p := pr.NumProcs()
	d := &dataRun{shipRun: r, naive: e.cfg.Shipping == DataShippingNaive, prev: make([][]tree.Stats, p),
		got: make(map[letPair][]fetchedChild), exps: make(map[letPair]*phys.Expansion), asked: make(map[letPair]bool),
		asks: make([][]uint64, p), askSec: make([][]*fetchSection, p)}
	for o, bin := range r.sh.bins {
		d.prev[o] = make([]tree.Stats, len(bin.Branches))
	}
	// The slots in slot order, read with one cursor per owner as fold
	// reads the replies.
	of := make(map[letPair]*fetchSection)
	clear(r.sh.at)
	owners := log.Owners
	for i, n := range log.Ships {
		for _, o := range owners[:n] {
			sl := dataSlot{part: int32(i), at: r.sh.at[o]}
			r.sh.at[o]++
			b := int32(r.sh.bins[o].Branches[sl.at])
			pair := letPair{peer: int(o), key: st.flat.keys[b]}
			s := of[pair]
			if s == nil {
				s = &fetchSection{owner: pair.peer, branch: b, si: -1}
				s.BranchKey = pair.key
				of[pair] = s
				d.secs = append(d.secs, s)
			}
			s.slots, s.blocked = append(s.slots, sl), append(s.blocked, sl)
		}
		owners = owners[n:]
	}
	for d.wave() {
	}
	for pair, sent := range st.letSent {
		slices.Sort(sent)
		st.letSent[pair] = slices.Compact(sent) // naive: cells asked for more than once
	}
	d.final()
	r.fold(st.parts, log.Ships, log.Owners, res)
	e.letReturnLoads(pr, st, r.fl)
	r.fl.Release()
	st.forceT = pr.Stats().ComputeTime - t0
}

// wave sweeps the blocked slots over their sections as they stand and
// charges what the passes added; then, unless no rank asks for anything,
// it fetches what the blocked lanes asked for and reports true.
func (d *dataRun) wave() bool {
	d.emitGrown()
	var added tree.Stats
	pending := 0
	for _, s := range d.secs {
		if s.si < 0 {
			for range s.blocked {
				pending += d.ask(s, s.BranchKey)
			}
			continue
		}
		still := s.blocked[:0] // filtered in place: a slot is read before it can be overwritten
		d.pass(s, s.blocked, func(sl dataSlot, pk *tree.Packet, l int) {
			now, was := pk.Stats(l), &d.prev[s.owner][sl.at]
			added.Add(tree.Stats{MACTests: now.MACTests - was.MACTests, PC: now.PC - was.PC, PP: now.PP - was.PP})
			*was = now
			d.sh.deferred = pk.Deferred(l, d.sh.deferred[:0])
			for _, node := range d.sh.deferred {
				pending += d.ask(s, s.cells[node])
			}
			if len(d.sh.deferred) > 0 {
				still = append(still, sl)
			}
		})
		s.blocked = still
	}
	d.pr.Compute(added.Flops(d.e.cfg.degreeOrMonopole()))
	if d.pr.SumF64([]float64{float64(pending)})[0] == 0 {
		return false
	}
	d.fetch()
	return true
}

// ask requests cell key of section s's owner — once a wave under
// DataShipping, once a visit under DataShippingNaive — and returns how
// many requests it added.
func (d *dataRun) ask(s *fetchSection, key uint64) int {
	if pair := (letPair{peer: s.owner, key: key}); !d.naive {
		if d.asked[pair] {
			return 0
		}
		d.asked[pair] = true
	}
	d.asks[s.owner] = append(d.asks[s.owner], key)
	d.askSec[s.owner] = append(d.askSec[s.owner], s)
	return 1
}

// fetch ships the wave's requests, serves the ones that reach this rank,
// and files the replies by (owner, cell key), marking their sections grown.
func (d *dataRun) fetch() {
	pr, st, e := d.pr, d.st, d.e
	p := pr.NumProcs()
	payloads, words := make([]any, p), make([]int, p)
	for o, ks := range d.asks {
		payloads[o], words[o] = ks, len(ks)
	}
	recvReq := pr.AllToAll(payloads, words)
	for src := 0; src < p; src++ {
		var cells []fetchedCell
		w := 0
		for _, key := range recvReq[src].([]uint64) {
			pr.Compute(st.lookup.cost())
			cell := e.serveFetch(st, src, key)
			for _, c := range cell.Children {
				w += c.words()
			}
			pr.Compute(float64(len(cell.Children)) * 4)
			cells = append(cells, cell)
		}
		payloads[src], words[src] = cells, w+1
	}
	recvRep := pr.AllToAll(payloads, words)
	for src := 0; src < p; src++ {
		for i, cell := range recvRep[src].([]fetchedCell) {
			if _, dup := d.got[letPair{peer: src, key: cell.Key}]; dup {
				continue // naive asks for a cell once a visit
			}
			d.got[letPair{peer: src, key: cell.Key}] = cell.Children
			d.askSec[src][i].grown = true
			for _, c := range cell.Children {
				if e.cfg.Mode == PotentialMode && !c.IsLeaf {
					ex, err := phys.ExpansionFromFloats(e.cfg.Degree, c.Sum.Exp)
					if err != nil {
						panic(fmt.Sprintf("parbh: fetched cell %x: %v", c.Sum.Key, err))
					}
					d.exps[letPair{peer: src, key: c.Sum.Key}] = ex
				}
			}
		}
		d.asks[src], d.askSec[src] = nil, d.askSec[src][:0] // src may still read its request
	}
	clear(d.asked)
}

// emitGrown emits every section a reply arrived for, grafting it into the
// rank's Flat once its root is there, and reseals the Flat: the section
// Load counters are sized afresh, zero.
func (d *dataRun) emitGrown() {
	for _, s := range d.secs {
		if !s.grown {
			continue
		}
		s.grown = false
		d.emit(s)
		if s.si < 0 {
			s.si = d.fl.AddSection(s.owner, &s.Section, s.branch, d.st.flat.slot(s.branch, s.owner))
		}
	}
	d.fl.Seal()
}

// emit writes section s from the replies: the branch root, whose summary
// is never tested and left zero, then in the owner's DFS order every child
// of each fetched cell — a leaf with its particles in the owner's order, a
// fetched cell with its children, any other as a stub. An owner holding
// nothing under the branch makes it an empty leaf: an exact zero, as
// function shipping's reply is.
func (d *dataRun) emit(s *fetchSection) {
	s.Reset()
	s.cells = s.cells[:0]
	root := d.got[letPair{peer: s.owner, key: s.BranchKey}]
	switch {
	case len(root) == 0:
		d.leaf(s, fetchedChild{Sum: BranchSummary{Key: s.BranchKey}})
	case root[0].Sum.Key == s.BranchKey:
		d.leaf(s, root[0]) // a leaf branch answers for itself
	default:
		s.cells = append(s.cells, s.BranchKey)
		tree.AppendNode(&s.Cols, tree.KindInternal, vec.V3{}, 0, 0, nil, -1, -1)
		d.children(s, root)
		s.Skip[0] = int32(len(s.Kind))
	}
}

func (d *dataRun) children(s *fetchSection, kids []fetchedChild) {
	for _, c := range kids {
		if c.IsLeaf {
			d.leaf(s, c)
			continue
		}
		pair := letPair{peer: s.owner, key: c.Sum.Key}
		sub, open := d.got[pair]
		kind := tree.KindStub
		if open {
			kind = tree.KindInternal
		}
		// The side is the box's, halved from the domain as the owner's
		// tree halves it.
		side := keys.CellBox(d.e.domain, keys.CellKeyFromUint64(c.Sum.Key)).LongestSide()
		s.cells = append(s.cells, c.Sum.Key)
		idx := tree.AppendNode(&s.Cols, kind, c.Sum.COM, c.Sum.Mass, side, d.exps[pair], -1, -1)
		if open {
			d.children(s, sub)
			s.Skip[idx] = int32(len(s.Kind))
		}
	}
}

func (d *dataRun) leaf(s *fetchSection, c fetchedChild) {
	lo := int32(len(s.ID))
	for _, q := range c.Particles {
		s.ID = append(s.ID, q.ID)
		s.PX, s.PY, s.PZ = append(s.PX, q.Pos.X), append(s.PY, q.Pos.Y), append(s.PZ, q.Pos.Z)
		s.PM = append(s.PM, q.Mass)
	}
	s.cells = append(s.cells, c.Sum.Key)
	tree.AppendNode(&s.Cols, tree.KindLeaf, vec.V3{}, 0, 0, nil, lo, int32(len(s.ID)))
}

// pass sweeps slots of section s over it, eight to a packet, and calls
// lane for every slot with the packet and its lane there.
func (d *dataRun) pass(s *fetchSection, slots []dataSlot, lane func(sl dataSlot, pk *tree.Packet, l int)) {
	pk := &d.sh.served
	for lo := 0; lo < len(slots); lo += 8 {
		group := slots[lo:min(lo+8, len(slots))]
		for l, sl := range group {
			q := &d.st.parts[sl.part]
			pk.SetLane(l, int32(q.ID), q.Pos)
		}
		d.fl.BelowSection(pk, len(group), s.si)
		for l, sl := range group {
			lane(sl, pk, l)
		}
	}
}

// final sweeps every slot once more over the complete sections, whose Load
// counters Seal clears of the waves' charges, and files each slot's counts
// and its value — exactly its owner's service — where the owner's reply
// would have held it.
func (d *dataRun) final() {
	d.fl.Seal()
	force := d.e.cfg.Mode == ForceMode
	for o, bin := range d.sh.bins {
		if force {
			d.sh.reps[o].F = make([]vec.V3, len(bin.Branches))
		} else {
			d.sh.reps[o].P = make([]float64, len(bin.Branches))
		}
	}
	for _, s := range d.secs {
		rep := &d.sh.reps[s.owner]
		d.pass(s, s.slots, func(sl dataSlot, pk *tree.Packet, l int) {
			d.st.stats.Add(pk.Stats(l))
			if force {
				rep.F[sl.at] = pk.Sum(l)
			} else {
				rep.P[sl.at] = pk.Pot(l)
			}
		})
	}
}

// serveFetch builds the reply for one cell requester src asked for:
// summaries of its children (or the particles of a leaf branch). It
// records what src holds of the cell's branch — its root and every child
// shipped, put in node order after the waves — for letReturnLoads.
func (e *Engine) serveFetch(st *localState, src int, key uint64) fetchedCell {
	out := fetchedCell{Key: key}
	t := st.tree
	root, node := e.findLocalCell(st, key)
	if node < 0 {
		return out
	}
	withExp := e.cfg.Mode == PotentialMode
	pair := letPair{peer: src, key: t.Key[root]}
	sent, ok := st.letSent[pair]
	if !ok {
		sent = append(sent, root)
	}
	if t.IsLeaf(node) {
		// Only a leaf branch cell is asked for its own contents: any
		// other leaf ships with its parent's children.
		s := summaryOf(t, node, st.me, withExp)
		out.Children = []fetchedChild{{Sum: s, IsLeaf: true, Particles: toWire(t.Particles(node))}}
	}
	for c := node + 1; c < t.Skip[node]; c = t.Skip[c] {
		fc := fetchedChild{Sum: summaryOf(t, c, st.me, withExp)}
		if t.IsLeaf(c) {
			fc.IsLeaf = true
			fc.Particles = toWire(t.Particles(c))
		}
		out.Children = append(out.Children, fc)
		sent = append(sent, c)
	}
	st.letSent[pair] = sent
	return out
}

// findLocalCell resolves a packed cell key to a node of this processor's
// local subtrees (-1 for none) and the root of the branch it lies under:
// the nearest branch ancestor is located through the lookup structure and
// the remaining path is walked down.
func (e *Engine) findLocalCell(st *localState, key uint64) (root, node int32) {
	t := st.tree
	ck := keys.CellKeyFromUint64(key)
	anc := ck
	for {
		if n := st.lookup.find(anc.Uint64()); n >= 0 {
			// Walk down from the branch root to the requested cell.
			cur := n
			for lvl := int(anc.Level); lvl < int(ck.Level) && cur >= 0; lvl++ {
				oct := int(ck.Key>>(3*uint(int(ck.Level)-lvl-1))) & 7
				next := int32(-1)
				for c := cur + 1; c < t.Skip[cur]; c = t.Skip[c] {
					if t.Cell(c).Octant() == oct {
						next = c
					}
				}
				cur = next
			}
			return n, cur
		}
		if anc.Level == 0 {
			return -1, -1
		}
		anc = anc.Parent()
	}
}
