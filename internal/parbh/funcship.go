package parbh

import (
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Function-shipping force phase (Section 3.2). Each processor traverses
// the replicated global tree for every one of its particles. Local
// subtrees are descended directly; interactions accepted by the MAC at
// replicated top or remote-branch nodes are computed from the broadcast
// summaries; a rejected remote branch node causes the particle's
// coordinates to be placed in a bin for the branch's owner. Bins are
// flushed at BinSize particles, with at most one outstanding bin per
// source–destination pair: a processor that wants to send while a bin is
// outstanding must first serve incoming work, exactly as the paper
// prescribes. Shipped-back contributions are accumulated in fixed slot
// order so results are deterministic regardless of message timing.

// reqEntry asks the owner of branch `Key` for the subtree contribution at
// Pos; Slot identifies where the reply lands at the requester.
type reqEntry struct {
	Key  uint64
	Pos  vec.V3
	Self int32
	Slot int32
}

// reqEntryWords is the modelled wire size of one entry: three coordinate
// words (the paper's "three floating point numbers") plus one word of
// key/slot overhead.
const reqEntryWords = 4

// reqBin is a batch of shipped particles for one destination.
type reqBin struct {
	Entries []reqEntry
}

// repBin carries the computed contributions back; Slots mirrors the
// request order. Exactly one of F or P is set depending on the mode.
type repBin struct {
	Slots []int32
	F     []vec.V3
	P     []float64
}

// forcePhase runs the force-computation phase and writes per-particle
// results (indexed by particle ID) into res.
func (e *Engine) forcePhase(pr *msg.Proc, st *localState, res *Result) {
	switch e.cfg.Shipping {
	case DataShipping, DataShippingNaive:
		e.dataShipPhase(pr, st, res)
		return
	case LETShipping:
		e.letForcePhase(pr, st, res)
		return
	}
	r := &shipRun{e: e, pr: pr, st: st, sh: &e.ship[st.me]}
	r.init()
	t0 := pr.Stats().ComputeTime
	st.extraLoad = make(map[int]float64, len(st.parts))

	r.flatten()
	r.sweepOwn()
	r.flush()
	r.terminate()

	// Deterministic reduction: remote contributions are added in slot
	// order, which is the traversal order and independent of message
	// timing.
	s := 0
	for i := range st.parts {
		id := st.parts[i].ID
		if e.cfg.Mode == ForceMode {
			for ; s < r.slotEnd[i]; s++ {
				r.localF[i] = r.localF[i].Add(r.slotF[s])
			}
			res.Accels[id] = r.localF[i]
		} else {
			for ; s < r.slotEnd[i]; s++ {
				r.localP[i] += r.slotP[s]
			}
			res.Potentials[id] = r.localP[i]
		}
	}
	r.fl.ApplyLocalLoads()
	r.sh.slots = s
	st.forceT = pr.Stats().ComputeTime - t0
}

// shipScratch is what a rank's function-shipping phase keeps from one step
// to the next: host-side buffers only, nothing the simulation can observe.
type shipScratch struct {
	// slots is last step's slot count (≈43 per particle): the next step
	// sizes its slot arrays with it instead of regrowing them from empty.
	slots int

	// Where the branch cells landed in the rank's flat tree.
	branchAt []*pnode         // node index → remote branch cell
	localAt  map[uint64]int32 // packed branch key → node index of the local subtree root

	// own sweeps this rank's particles; served sweeps the requests it
	// serves. They are two because serve re-enters from sendBin's flow
	// control while own's lanes are still being replayed.
	own, served tree.Packet
	deferred    []int32 // one lane's opened branches

	// Grouping of one served bin by branch.
	base    []int32   // per entry: node index of its branch, -1 if unknown here
	fill    []int32   // per node: entries counted, then the group's write cursor
	touched []int32   // branches of the bin, in first-request order
	order   []int32   // entry indices, grouped
	flops   []float64 // per entry: the service's charge
}

// shipRun is the per-processor state of one function-shipping phase.
type shipRun struct {
	e  *Engine
	pr *msg.Proc
	st *localState
	sh *shipScratch
	fl *let.Flat // the rank's replicated tree in packet-kernel form

	bins        []reqBin // one per destination
	outstanding []bool   // one unacked bin per destination allowed
	pendingReps int      // bins sent, replies not yet received

	// What the rank's own sweep summed, by local particle index, and the
	// reply values by slot: F in force mode, P in potential mode. Slots are
	// handed out in traversal order, so local particle i's are
	// [slotEnd[i-1], slotEnd[i]).
	localF, slotF []vec.V3
	localP, slotP []float64
	slotEnd       []int

	// Tree-based termination detection.
	doneKids int
	sentUp   bool
	gotDown  bool
	flushed  bool
}

func (r *shipRun) init() {
	p := r.pr.NumProcs()
	r.bins = make([]reqBin, p)
	for dst := range r.bins {
		r.bins[dst] = r.newBin()
	}
	r.outstanding = make([]bool, p)
	// Last step's slot count plus an eighth: a rebalanced rank's count
	// drifts by a few percent, and outgrowing the estimate doubles it.
	slots := r.sh.slots + r.sh.slots/8
	n := len(r.st.parts)
	r.slotEnd = make([]int, n)
	if r.e.cfg.Mode == ForceMode {
		r.localF, r.slotF = make([]vec.V3, n), make([]vec.V3, 0, slots)
	} else {
		r.localP, r.slotP = make([]float64, n), make([]float64, 0, slots)
	}
}

// maxBinPrealloc bounds the capacity a bin is given up front: BinSize may
// be set far above what a rank ever ships (to disable mid-phase flushes).
const maxBinPrealloc = 1 << 10

// newBin returns an empty bin that fills to BinSize without regrowing.
func (r *shipRun) newBin() reqBin {
	return reqBin{Entries: reqEntryPool.get(min(r.e.cfg.BinSize, maxBinPrealloc))[:0]}
}

// ship places a particle in the bin of every owner of a remote branch.
func (r *shipRun) ship(n *pnode, pos vec.V3, self int) {
	for _, o := range n.owners {
		var slot int
		if r.e.cfg.Mode == ForceMode {
			slot, r.slotF = len(r.slotF), append(r.slotF, vec.V3{})
		} else {
			slot, r.slotP = len(r.slotP), append(r.slotP, 0)
		}
		r.bins[o].Entries = append(r.bins[o].Entries, reqEntry{
			Key: n.cell.Uint64(), Pos: pos, Self: int32(self), Slot: int32(slot),
		})
		if len(r.bins[o].Entries) >= r.e.cfg.BinSize {
			r.sendBin(o)
		}
	}
}

// sendBin flushes the bin for dst, first serving remote work while a
// previous bin to dst is still outstanding (the paper's flow control).
func (r *shipRun) sendBin(dst int) {
	if len(r.bins[dst].Entries) == 0 {
		return
	}
	for r.outstanding[dst] {
		r.serviceOne(true)
	}
	bin := r.bins[dst]
	r.bins[dst] = r.newBin()
	r.pr.Send(dst, tagRequest, bin, reqEntryWords*len(bin.Entries)+1)
	r.outstanding[dst] = true
	r.pendingReps++
}

// flush sends every non-empty partial bin and recycles the empty ones.
func (r *shipRun) flush() {
	for dst := range r.bins {
		r.sendBin(dst)
		reqEntryPool.put(r.bins[dst].Entries)
		r.bins[dst] = reqBin{}
	}
	r.flushed = true
}

// serviceAll drains currently available work without blocking.
func (r *shipRun) serviceAll(block bool) {
	for r.serviceOne(block) {
		block = false
	}
}

// serviceOne handles one incoming message; returns false if none was
// available (non-blocking mode).
func (r *shipRun) serviceOne(block bool) bool {
	var payload any
	var from, tag int
	if block {
		payload, from, tag = r.pr.RecvTags(tagRequest, tagReply, tagDoneUp, tagDoneDown)
	} else {
		var ok bool
		payload, from, tag, ok = r.pr.TryRecvTags(tagRequest, tagReply, tagDoneUp, tagDoneDown)
		if !ok {
			return false
		}
	}
	switch tag {
	case tagRequest:
		r.serve(payload.(reqBin), from)
	case tagReply:
		rep := payload.(repBin)
		for i, s := range rep.Slots {
			if r.e.cfg.Mode == ForceMode {
				r.slotF[s] = rep.F[i]
			} else {
				r.slotP[s] = rep.P[i]
			}
		}
		slotPool.put(rep.Slots)
		vec3Pool.put(rep.F)
		f64Pool.put(rep.P)
		r.outstanding[from] = false
		r.pendingReps--
	case tagDoneUp:
		r.doneKids++
	case tagDoneDown:
		r.gotDown = true
		r.forwardDown()
	}
	return true
}

// serve computes the requested subtree contributions and ships the
// results back: the essence of function shipping — the computation runs
// where the data is.
func (r *shipRun) serve(bin reqBin, from int) {
	n := len(bin.Entries)
	rep := repBin{Slots: slotPool.get(n)}
	for i := range bin.Entries {
		rep.Slots[i] = bin.Entries[i].Slot
	}
	words := n + 1
	if r.e.cfg.Mode == ForceMode {
		rep.F = vec3Pool.get(n)
		words = 3*n + 1
	} else {
		rep.P = f64Pool.get(n)
	}
	r.servePackets(bin.Entries, &rep)
	reqEntryPool.put(bin.Entries)
	r.pr.Send(from, tagReply, rep, words)
}

// servePackets answers one bin on the packet kernel. The requesters already
// rejected each branch cell under the MAC, so service starts at the branch's
// children (or at the particles of a leaf branch), mirroring what a serial
// traversal does after rejecting the node. Entries asking for the same
// branch are swept together, up to eight to a packet, from the branch's
// node in this rank's flat tree; every lane is still its entry's lone
// traversal, and the clock is then charged entry by entry in request order —
// lookup, then that entry's interactions.
func (r *shipRun) servePackets(entries []reqEntry, rep *repBin) {
	sh := r.sh
	sh.base, sh.touched = sh.base[:0], sh.touched[:0]
	for i := range entries {
		b, ok := sh.localAt[entries[i].Key]
		if !ok {
			b = -1
		} else {
			if sh.fill[b] == 0 {
				sh.touched = append(sh.touched, b)
			}
			sh.fill[b]++
		}
		sh.base = append(sh.base, b)
	}
	// Counting sort by branch: fill turns from counts into write cursors,
	// which end up at each group's end.
	var off int32
	for _, b := range sh.touched {
		off, sh.fill[b] = off+sh.fill[b], off
	}
	if len(sh.order) < len(entries) {
		sh.order = make([]int32, len(entries))
		sh.flops = make([]float64, len(entries))
	}
	for i, b := range sh.base {
		if b >= 0 {
			sh.order[sh.fill[b]] = int32(i)
			sh.fill[b]++
		}
	}
	force, deg := r.e.cfg.Mode == ForceMode, r.e.cfg.degreeOrMonopole()
	pk := &sh.served
	lo := int32(0)
	for _, b := range sh.touched {
		hi := sh.fill[b]
		sh.fill[b] = 0
		for ; lo < hi; lo += 8 {
			group := sh.order[lo:min(lo+8, hi)]
			for l, i := range group {
				pk.SetLane(l, entries[i].Self, entries[i].Pos)
			}
			r.fl.Below(pk, len(group), b)
			for l, i := range group {
				s := pk.Stats(l)
				r.st.stats.Add(s)
				sh.flops[i] = s.Flops(deg)
				if force {
					rep.F[i] = pk.Sum(l)
				} else {
					rep.P[i] = pk.Pot(l)
				}
			}
		}
		lo = hi
	}
	lookup := r.st.lookup.cost()
	for i, b := range sh.base {
		r.pr.Compute(lookup)
		if b >= 0 {
			r.pr.Compute(sh.flops[i])
			continue
		}
		// Empty branch (race with zero-count summaries). Pooled reply
		// buffers carry stale values, so zero the slot explicitly.
		if force {
			rep.F[i] = vec.V3{}
		} else {
			rep.P[i] = 0
		}
	}
}

// flatten puts the rank's replicated tree in packet-kernel form: the same
// main region a LET rank sweeps, its remote branch cells carrying no
// grafts — an opened branch is shipped, not resolved locally.
func (r *shipRun) flatten() {
	sh := r.sh
	if sh.localAt == nil {
		sh.localAt = make(map[uint64]int32)
	}
	clear(sh.localAt)
	fl := r.e.letFlat(r.st.me) // the rank's reusable flat tree; a run ships one way only
	fl.Reset()
	fl.BeginMain()
	sh.branchAt = sh.branchAt[:0]
	flattenTop(fl, r.st.top, func(n *pnode) {
		if n.local != nil {
			sh.localAt[n.cell.Uint64()] = fl.AddLocalSubtree(n.local)
			return
		}
		idx := fl.AddBranch(n.leafCell, n.com, n.mass, n.side, n.exp, nil)
		for len(sh.branchAt) <= int(idx) {
			sh.branchAt = append(sh.branchAt, nil)
		}
		sh.branchAt[idx] = n
	})
	fl.Seal()
	// fill is all zero between bins, so resizing it is all it needs.
	if cap(sh.fill) < fl.NumNodes() {
		sh.fill = make([]int32, fl.NumNodes())
	}
	sh.fill = sh.fill[:fl.NumNodes()]
	cfg := r.e.cfg
	// The per-interaction extra-load addend: interactions against
	// replicated summaries have no local tree node to charge.
	fl.Begin(cfg.Alpha, cfg.Eps, phys.InteractionFlops(cfg.degreeOrMonopole())+phys.MACFlops, cfg.Mode == PotentialMode)
	r.fl = fl
}

// sweepOwn runs the traversal of the rank's own particles, eight at a time
// in particle order, then replays the packet one lane — one particle — at a
// time on the simulated clock: the particle's interactions are charged, the
// branches it opened are shipped in the order its lone traversal would have
// met them, and incoming work is polled ("processors must periodically
// process remote work requests"). Slots, bins, flow control and termination
// therefore see exactly a one-particle-at-a-time traversal.
func (r *shipRun) sweepOwn() {
	sh, st := r.sh, r.st
	force, deg := r.e.cfg.Mode == ForceMode, r.e.cfg.degreeOrMonopole()
	pk := &sh.own
	for k := 0; k < len(st.parts); k += 8 {
		n := min(8, len(st.parts)-k)
		for l, q := range st.parts[k : k+n] {
			pk.SetLane(l, int32(q.ID), q.Pos)
		}
		r.fl.Defer(pk, n)
		for l := 0; l < n; l++ {
			i := k + l
			q := &st.parts[i]
			s := pk.Stats(l)
			st.stats.Add(s)
			r.pr.Compute(s.Flops(deg))
			if ex := pk.Extra(l); ex != 0 {
				st.extraLoad[q.ID] = ex
			}
			if force {
				r.localF[i] = pk.Sum(l)
			} else {
				r.localP[i] = pk.Pot(l)
			}
			sh.deferred = pk.Deferred(l, sh.deferred[:0])
			for _, node := range sh.deferred {
				r.ship(sh.branchAt[node], q.Pos, q.ID)
			}
			r.slotEnd[i] = len(r.slotF) + len(r.slotP) // the mode's; the other stays empty
			r.serviceAll(false)
		}
	}
}

// terminate runs the tree-based distributed termination protocol: a
// processor reports "done" up a binary tree over ranks once its own bins
// are flushed and answered and its subtree is done; the root then floods
// "done" down. Processors keep serving remote work while waiting, so no
// request ever starves.
func (r *shipRun) terminate() {
	me := r.pr.ID()
	p := r.pr.NumProcs()
	kids := 0
	if 2*me+1 < p {
		kids++
	}
	if 2*me+2 < p {
		kids++
	}
	for !r.gotDown {
		if !r.sentUp && r.flushed && r.pendingReps == 0 && r.doneKids == kids {
			if me == 0 {
				r.gotDown = true
				r.forwardDown()
				break
			}
			r.pr.Send((me-1)/2, tagDoneUp, struct{}{}, 1)
			r.sentUp = true
		}
		r.serviceOne(true)
	}
}

// forwardDown propagates the termination signal to tree children.
func (r *shipRun) forwardDown() {
	me := r.pr.ID()
	p := r.pr.NumProcs()
	for _, c := range []int{2*me + 1, 2*me + 2} {
		if c < p {
			r.pr.Send(c, tagDoneDown, struct{}{}, 1)
		}
	}
}
