package parbh

import (
	"slices"

	"repro/internal/dist"
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
// coordinates to be shipped to the branch's owner, which computes the
// subtree's contribution and ships it back.
//
// The phase runs on two planes. Nothing it *computes* depends on timing:
// the k-th entry rank q ships to owner o is the same entry whatever the
// flow control did, and replies, Stats, Loads and extraLoad are per-entry
// values or integer sums. So the data plane (shipRun, this file's first
// half) runs off the simulated clock, free on every core, in rounds sized
// for the kernel rather than the wire, and logs what it charged. The clock
// plane (shipClock, the second half) then replays the paper's protocol —
// bins of BinSize particles, one outstanding bin per source–destination
// pair, a poll for remote work after every particle, tree termination — on
// msg's ordered machine from those logs, which is the only place *when*
// is decided, and every live rank adopts the clock and Stats its replayed
// twin ended with.

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

// reqBin is one round's shipped particles for one destination. More is set
// while the sender has further rounds to come; a destination is done
// serving a peer once it has answered the bin that clears it.
type reqBin struct {
	Entries []reqEntry
	More    bool
}

// repBin carries the computed contributions back; Slots mirrors the
// request order. Exactly one of F or P is set depending on the mode.
type repBin struct {
	Slots []int32
	F     []vec.V3
	P     []float64
}

// shipLog is what one rank's data plane tells the clock plane: the charge
// of everything it computed, in the order the protocol would have met it.
// All charges are whole flop counts.
type shipLog struct {
	Start  float64     // the rank's clock when the phase began
	Flops  []float64   // per own particle, in particle order: its sweep's charge
	Ships  []int32     // per own particle: how many entries it shipped
	Owners []uint16    // every shipped entry's owner, in ship order
	Served [][]float64 // per requester: lookups + interactions of each BinSize entries served, in the requester's ship order
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
	st.extraLoad = e.scratch[st.me].extraLoad
	clear(st.extraLoad)
	r.flatten()
	r.exchange(res)
	r.fl.ApplyLocalLoads()

	clock := e.shipClock(pr, r.sh.log)
	pr.Adopt(clock)
	st.forceT = clock.Stats.ComputeTime
}

// shipRound is how many of its particles a rank sweeps between exchanges:
// enough that a round's requests to one owner fill packets (≈40 entries a
// particle over the owners it reaches), few enough that the requests and
// replies in flight stay a few hundred kilobytes a rank. A multiple of the
// packet width, so packets hold the same particles whatever the round.
const shipRound = 128

// shipScratch is what a rank's function-shipping phase keeps from one step
// to the next: host-side buffers only, nothing the simulation can observe.
type shipScratch struct {
	// Where the branch cells landed in the rank's flat tree.
	branchAt []*pnode         // node index → remote branch cell
	localAt  map[uint64]int32 // packed branch key → node index of the local subtree root

	// own sweeps this rank's particles; served sweeps the requests it
	// serves.
	own, served tree.Packet
	deferred    []int32 // one lane's opened branches

	// One round of the rank's own particles: what it ships, in ship order;
	// the request entries those become, owner o's at [cut[o], cut[o+1]);
	// what its sweep summed, by index in the round; and the reply values by
	// slot — F in force mode, P in potential mode. Slots are handed out in
	// traversal order, so the round's particle i has [slotEnd[i-1],
	// slotEnd[i]).
	shipped       []shipRef
	entries       []reqEntry
	cut           []int32
	localF, slotF []vec.V3
	localP, slotP []float64
	slotEnd       []int

	servedFrom []int // per requester: entries served so far this step

	// Grouping of one served bin by branch.
	base    []int32   // per entry: node index of its branch, -1 if unknown here
	fill    []int32   // per node: entries counted, then the group's write cursor
	touched []int32   // branches of the bin, in first-request order
	order   []int32   // entry indices, grouped
	flops   []float64 // per entry: the service's charge, lookup included

	// log is this step's account for the clock plane. Every rank's is read
	// until the replay ends, which is before any rank starts its next
	// phase, so the next step overwrites it in place.
	log shipLog
}

// shipRef is one shipped entry before it is addressed: the remote branch
// cell's node in the flat tree and the particle's index in the round.
type shipRef struct{ node, part int32 }

// shipRun is the per-processor state of one function-shipping data plane.
type shipRun struct {
	e  *Engine
	pr *msg.Proc
	st *localState
	sh *shipScratch
	fl *let.Flat // the rank's replicated tree in packet-kernel form
}

// exchange is the data plane: the rank sweeps its particles a round at a
// time, ships each round's requests to their owners in one message apiece,
// serves whatever requests reach it while it waits for the round's replies,
// folds those in, and after its last round keeps serving until every peer
// has said it is done. Results land in res; the charges in the rank's log.
func (r *shipRun) exchange(res *Result) {
	p, me, parts := r.pr.NumProcs(), r.st.me, r.st.parts
	log := &r.sh.log
	log.Start = r.pr.Now()
	log.Flops, log.Ships, log.Owners = log.Flops[:0], log.Ships[:0], log.Owners[:0]
	if len(log.Served) != p {
		log.Served = make([][]float64, p)
		r.sh.servedFrom = make([]int, p)
		r.sh.cut = make([]int32, p+2)
	}
	for q := range log.Served {
		log.Served[q] = log.Served[q][:0]
	}
	clear(r.sh.servedFrom)

	serving := p - 1 // peers whose last bin is still to come
	for lo := 0; ; lo += shipRound {
		hi := min(lo+shipRound, len(parts))
		// A bin sent within this process is read in place by its owner,
		// which is done with it once its reply is back: the round is over,
		// and the next one's sweep may overwrite the entries.
		r.sweep(parts[lo:hi])
		more, replies := hi < len(parts), 0
		for d := 1; d < p; d++ {
			o := (me + d) % p
			bin := r.sh.entries[r.sh.cut[o]:r.sh.cut[o+1]]
			if len(bin) == 0 && more {
				continue // nothing to ask and nothing to announce
			}
			if len(bin) > 0 {
				replies++
			}
			r.pr.SendOffClock(o, tagRequest, reqBin{Entries: bin, More: more})
		}
		for replies > 0 {
			payload, from, tag := r.pr.RecvOffClock(tagRequest, tagReply)
			if tag == tagRequest {
				serving -= r.serve(payload.(reqBin), from)
				continue
			}
			r.scatter(payload.(repBin))
			replies--
		}
		r.reduce(parts[lo:hi], res)
		if !more {
			break
		}
	}
	for serving > 0 {
		payload, from, _ := r.pr.RecvOffClock(tagRequest)
		serving -= r.serve(payload.(reqBin), from)
	}
}

// sweep runs the traversal of one round of the rank's own particles, eight
// at a time in particle order, then reads the packet back one lane — one
// particle — at a time: its charge is logged, and the branches it opened
// are shipped in the order its lone traversal would have met them. Slots
// and the ship sequence are therefore exactly those of a
// one-particle-at-a-time traversal. The round's shipments then become
// request entries in one buffer cut per owner (a counting sort, as
// servePackets groups a bin by branch), each owner's in ship order.
func (r *shipRun) sweep(round []dist.Particle) {
	sh, st, log := r.sh, r.st, &r.sh.log
	force, deg := r.e.cfg.Mode == ForceMode, r.e.cfg.degreeOrMonopole()
	sh.slotEnd = sh.slotEnd[:0]
	sh.localF, sh.localP = sh.localF[:0], sh.localP[:0]
	sh.shipped = sh.shipped[:0]
	clear(sh.cut) // owner o's entries are counted in cut[o+2]
	slots := 0
	pk := &sh.own
	for k := 0; k < len(round); k += 8 {
		n := min(8, len(round)-k)
		for l, q := range round[k : k+n] {
			pk.SetLane(l, int32(q.ID), q.Pos)
		}
		r.fl.Defer(pk, n)
		for l := 0; l < n; l++ {
			q := &round[k+l]
			s := pk.Stats(l)
			st.stats.Add(s)
			log.Flops = append(log.Flops, s.Flops(deg))
			if ex := pk.Extra(l); ex != 0 {
				st.extraLoad[q.ID] = ex
			}
			if force {
				sh.localF = append(sh.localF, pk.Sum(l))
			} else {
				sh.localP = append(sh.localP, pk.Pot(l))
			}
			sh.deferred = pk.Deferred(l, sh.deferred[:0])
			first := slots
			for _, node := range sh.deferred {
				for _, o := range sh.branchAt[node].owners {
					sh.shipped = append(sh.shipped, shipRef{node: node, part: int32(k + l)})
					log.Owners = append(log.Owners, uint16(o))
					sh.cut[o+2]++
					slots++
				}
			}
			log.Ships = append(log.Ships, int32(slots-first))
			sh.slotEnd = append(sh.slotEnd, slots)
		}
	}
	// Summed, cut[o+1] is where owner o's entries start; it is their write
	// cursor, so it ends where owner o+1's start, and cut[o] where o's do.
	for o := 2; o < len(sh.cut); o++ {
		sh.cut[o] += sh.cut[o-1]
	}
	sh.entries = slices.Grow(sh.entries[:0], slots)[:slots]
	owners := log.Owners[len(log.Owners)-slots:]
	for slot, ref := range sh.shipped {
		q, o := &round[ref.part], owners[slot]
		sh.entries[sh.cut[o+1]] = reqEntry{
			Key: sh.branchAt[ref.node].cell.Uint64(), Pos: q.Pos, Self: int32(q.ID), Slot: int32(slot),
		}
		sh.cut[o+1]++
	}
	// Every slot is written by exactly one reply before reduce reads it.
	if force {
		sh.slotF = slices.Grow(sh.slotF[:0], slots)[:slots]
	} else {
		sh.slotP = slices.Grow(sh.slotP[:0], slots)[:slots]
	}
}

// scatter files one reply's values under their slots.
func (r *shipRun) scatter(rep repBin) {
	for i, s := range rep.Slots {
		if rep.F != nil {
			r.sh.slotF[s] = rep.F[i]
		} else {
			r.sh.slotP[s] = rep.P[i]
		}
	}
}

// reduce adds a round's remote contributions to its particles' own sums in
// slot order — the traversal order, independent of which reply came first
// — and writes the results.
func (r *shipRun) reduce(round []dist.Particle, res *Result) {
	sh := r.sh
	s := 0
	for i := range round {
		id := round[i].ID
		if r.e.cfg.Mode == ForceMode {
			f := sh.localF[i]
			for ; s < sh.slotEnd[i]; s++ {
				f = f.Add(sh.slotF[s])
			}
			res.Accels[id] = f
		} else {
			phi := sh.localP[i]
			for ; s < sh.slotEnd[i]; s++ {
				phi += sh.slotP[s]
			}
			res.Potentials[id] = phi
		}
	}
}

// serve computes the requested subtree contributions and ships the
// results back: the essence of function shipping — the computation runs
// where the data is. It returns 1 if the bin was the requester's last.
func (r *shipRun) serve(bin reqBin, from int) int {
	if n := len(bin.Entries); n > 0 {
		rep := repBin{Slots: make([]int32, n)}
		for i := range bin.Entries {
			rep.Slots[i] = bin.Entries[i].Slot
		}
		if r.e.cfg.Mode == ForceMode {
			rep.F = make([]vec.V3, n)
		} else {
			rep.P = make([]float64, n)
		}
		r.servePackets(bin.Entries, &rep)
		// Whatever rounds the entries came in, the protocol serves them in
		// bins: the k-th BinSize of them is one message, charged at once.
		bins := r.sh.log.Served[from]
		for _, flops := range r.sh.flops[:n] {
			if r.sh.servedFrom[from]%r.e.cfg.BinSize == 0 {
				bins = append(bins, 0)
			}
			bins[len(bins)-1] += flops
			r.sh.servedFrom[from]++
		}
		r.sh.log.Served[from] = bins
		r.pr.SendOffClock(from, tagReply, rep)
	}
	if bin.More {
		return 0
	}
	return 1
}

// servePackets answers one bin on the packet kernel and leaves each
// entry's charge — the branch lookup plus that entry's interactions — in
// sh.flops, in request order. The requesters already rejected each branch
// cell under the MAC, so service starts at the branch's children (or at the
// particles of a leaf branch), mirroring what a serial traversal does after
// rejecting the node. Entries asking for the same branch are swept
// together, up to eight to a packet, from the branch's node in this rank's
// flat tree; every lane is still its entry's lone traversal.
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
		if b >= 0 {
			sh.flops[i] += lookup
			continue
		}
		// Empty branch (race with zero-count summaries): only the lookup is
		// charged, and the reply is an explicit zero whatever rep held.
		sh.flops[i] = lookup
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
	flattenTop(fl, r.st, r.st.top, func(n *pnode, own int32) {
		if own >= 0 {
			sh.localAt[n.cell.Uint64()] = fl.AddLocalSubtree(r.st.tree, own)
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

// shipClock charges the phase. Every rank sends its log to the leader rank
// of every process; each leader, holding all P logs, replays the protocol
// once on the ordered machine — every process the same machine from the
// same logs, so the clocks agree to the bit across transports — and hands
// each of its process's ranks where its twin ended. Logs and clocks travel
// off the clock.
func (e *Engine) shipClock(pr *msg.Proc, log shipLog) msg.Replayed {
	m, me := e.machine, pr.ID()
	for _, l := range m.Leaders() {
		if l != me {
			pr.SendOffClock(l, tagShipLog, log)
		}
	}
	if me != m.Leader() {
		payload, _, _ := pr.RecvOffClock(tagShipClock)
		return payload.(msg.Replayed)
	}
	logs := make([]shipLog, m.P)
	logs[me] = log
	for i := 1; i < m.P; i++ {
		payload, from, _ := pr.RecvOffClock(tagShipLog)
		logs[from] = payload.(shipLog)
	}
	clocks, err := replayShip(m, e.cfg, logs)
	if err != nil {
		pr.Fail(err)
	}
	for _, rk := range m.LocalRanks() {
		if rk != me {
			pr.SendOffClock(rk, tagShipClock, clocks[rk])
		}
	}
	return clocks[me]
}

// replayShip runs the function-shipping protocol of one step on m's
// ordered machine, every rank charging what its log says it computed.
func replayShip(m *msg.Machine, cfg Config, logs []shipLog) ([]msg.Replayed, error) {
	start := make([]float64, len(logs))
	for i := range logs {
		start[i] = logs[i].Start
	}
	return m.RunOrdered(start, func(pr *msg.Proc) {
		p := pr.NumProcs()
		c := &shipReplay{cfg: cfg, pr: pr, logs: logs,
			fill: make([]int, p), outstanding: make([]bool, p), served: make([]int, p)}
		c.run()
	})
}

// shipReplay is one virtual rank of the clock plane: the paper's protocol
// with every kernel replaced by the charge the data plane logged for it. A
// bin travels as its entry count.
type shipReplay struct {
	cfg  Config
	pr   *msg.Proc
	logs []shipLog

	fill        []int  // per destination: entries in the open bin
	outstanding []bool // one unacked bin per destination allowed
	pendingReps int    // bins sent, replies not yet received
	served      []int  // per requester: bins of its ship sequence served so far

	// Tree-based termination detection.
	doneKids int
	sentUp   bool
	gotDown  bool
	flushed  bool
}

// run is a rank's force phase on the clock: each of its particles is
// charged, the branches it opened are binned in ship order, and incoming
// work is polled ("processors must periodically process remote work
// requests"); then the partial bins go out and termination runs.
func (c *shipReplay) run() {
	log := &c.logs[c.pr.ID()]
	next := 0
	for i, flops := range log.Flops {
		c.pr.Compute(flops)
		end := next + int(log.Ships[i])
		for _, o := range log.Owners[next:end] {
			c.ship(int(o))
		}
		next = end
		c.serviceAll(false)
	}
	c.flush()
	c.terminate()
}

// ship places an entry in the bin of a remote branch's owner. Bins are
// flushed at BinSize entries.
func (c *shipReplay) ship(o int) {
	c.fill[o]++
	if c.fill[o] >= c.cfg.BinSize {
		c.sendBin(o)
	}
}

// sendBin flushes the bin for dst, first serving remote work while a
// previous bin to dst is still outstanding (the paper's flow control: at
// most one outstanding bin per source–destination pair).
func (c *shipReplay) sendBin(dst int) {
	n := c.fill[dst]
	if n == 0 {
		return
	}
	for c.outstanding[dst] {
		c.serviceOne(true)
	}
	c.fill[dst] = 0
	c.pr.Send(dst, tagRequest, n, reqEntryWords*n+1)
	c.outstanding[dst] = true
	c.pendingReps++
}

// flush sends every non-empty partial bin.
func (c *shipReplay) flush() {
	for dst := range c.fill {
		c.sendBin(dst)
	}
	c.flushed = true
}

// serviceAll drains currently available work without blocking.
func (c *shipReplay) serviceAll(block bool) {
	for c.serviceOne(block) {
		block = false
	}
}

// serviceOne handles one incoming message; returns false if none was
// available (non-blocking mode).
func (c *shipReplay) serviceOne(block bool) bool {
	var payload any
	var from, tag int
	if block {
		payload, from, tag = c.pr.RecvTags(tagRequest, tagReply, tagDoneUp, tagDoneDown)
	} else {
		var ok bool
		payload, from, tag, ok = c.pr.TryRecvTags(tagRequest, tagReply, tagDoneUp, tagDoneDown)
		if !ok {
			return false
		}
	}
	switch tag {
	case tagRequest:
		c.serve(payload.(int), from)
	case tagReply:
		c.outstanding[from] = false
		c.pendingReps--
	case tagDoneUp:
		c.doneKids++
	case tagDoneDown:
		c.gotDown = true
		c.forwardDown()
	}
	return true
}

// serve charges a bin of n entries from a requester — its next to this
// rank — and ships the reply: three words an entry in force mode, one in
// potential mode.
func (c *shipReplay) serve(n, from int) {
	c.pr.Compute(c.logs[c.pr.ID()].Served[from][c.served[from]])
	c.served[from]++
	words := n + 1
	if c.cfg.Mode == ForceMode {
		words = 3*n + 1
	}
	c.pr.Send(from, tagReply, nil, words)
}

// terminate runs the tree-based distributed termination protocol: a
// processor reports "done" up a binary tree over ranks once its own bins
// are flushed and answered and its subtree is done; the root then floods
// "done" down. Processors keep serving remote work while waiting, so no
// request ever starves.
func (c *shipReplay) terminate() {
	me := c.pr.ID()
	p := c.pr.NumProcs()
	kids := 0
	if 2*me+1 < p {
		kids++
	}
	if 2*me+2 < p {
		kids++
	}
	for !c.gotDown {
		if !c.sentUp && c.flushed && c.pendingReps == 0 && c.doneKids == kids {
			if me == 0 {
				c.gotDown = true
				c.forwardDown()
				break
			}
			c.pr.Send((me-1)/2, tagDoneUp, nil, 1)
			c.sentUp = true
		}
		c.serviceOne(true)
	}
}

// forwardDown propagates the termination signal to tree children.
func (c *shipReplay) forwardDown() {
	me := c.pr.ID()
	p := c.pr.NumProcs()
	for _, k := range []int{2*me + 1, 2*me + 2} {
		if k < p {
			c.pr.Send(k, tagDoneDown, nil, 1)
		}
	}
}
