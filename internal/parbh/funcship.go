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

// reqPart is one particle of a request bin: its coordinates and ID, and
// how many of the bin's keys are its entries.
type reqPart struct {
	Pos  vec.V3
	Self int32
	N    int32
}

// reqEntryWords is the modelled wire size of one (particle, branch) entry
// in the paper's protocol: three coordinate words (the paper's "three
// floating point numbers") plus one word of key overhead. It is the
// simulated bin's size, not the host layout, which sends a particle once
// per owner.
const reqEntryWords = 4

// reqBin is one round's shipped particles for one destination: each
// particle once, in particle order, followed in Branches by the branch
// ordinals (topFlat) of its N entries in ship order. More is set while the
// sender has further rounds to come; a destination is done serving a peer
// once it has answered the bin that clears it.
type reqBin struct {
	Parts    []reqPart
	Branches []uint64
	More     bool
}

// repBin carries the computed contributions back, one per entry in
// request order. Exactly one of F or P is set depending on the mode.
type repBin struct {
	F []vec.V3
	P []float64
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
	e.startExtraLoad(st)
	r.flatten()
	r.exchange(res)
	r.fl.Release()

	clock := e.shipClock(pr, r.sh.log)
	pr.Adopt(clock)
	st.forceT = clock.Stats.ComputeTime
}

// shipRound is how many of its particles a rank sweeps between exchanges:
// enough that a round's requests to one owner fill packets (at
// dpda_func_p16, 44 entries a particle over the 13 owners it reaches), few
// enough that the requests and replies in flight stay a few hundred
// kilobytes a rank (there, 220 KB a round on average and 290 KB at most:
// 32 B a particle per owner, 8 B a key and 24 B a reply value). A multiple
// of the packet width, so packets hold the same particles whatever the
// round.
const shipRound = 128

// shipScratch is what a rank's function-shipping phase keeps from one step
// to the next: host-side buffers only, nothing the simulation can observe.
type shipScratch struct {
	// own sweeps this rank's particles; served sweeps the requests it
	// serves.
	own, served tree.Packet
	deferred    []int32 // one lane's opened branches

	// One round of the rank's own particles: its request to each owner,
	// each in ship order; what its sweep summed, by index in the round; and
	// each owner's reply — F in force mode, P in potential mode — with the
	// fold's cursor into it.
	bins   []reqBin
	localF []vec.V3
	localP []float64
	reps   []repBin
	at     []int32

	servedFrom []int // per requester: entries served so far this step
	// Per requester: the reply this rank last filled for it. The requester
	// has folded it by the time its next bin arrives, so that bin's reply
	// reuses it; the phase's end drops them.
	repTo []repBin

	// Grouping of one served bin by branch.
	part    []int32   // per entry: its particle's index in the bin's Parts
	base    []int32   // per entry: its branch's root in the rank's tree, -1 if unknown here
	fill    []int32   // per tree node: entries counted, then the group's write cursor
	touched []int32   // branches of the bin, in first-request order
	order   []int32   // entry indices, grouped
	flops   []float64 // per entry: the service's charge, lookup included

	// log is this step's account for the clock plane. Every rank's is read
	// until the replay ends, which is before any rank starts its next
	// phase, so the next step overwrites it in place.
	log shipLog
}

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
	log := r.start()
	if len(log.Served) != p {
		log.Served = make([][]float64, p)
		r.sh.servedFrom, r.sh.repTo = make([]int, p), make([]repBin, p)
	}
	defer clear(r.sh.repTo)
	for q := range log.Served {
		log.Served[q] = log.Served[q][:0]
	}
	clear(r.sh.servedFrom)

	serving := p - 1 // peers whose last bin is still to come
	for lo := 0; ; lo += shipRound {
		hi := min(lo+shipRound, len(parts))
		// A bin sent within this process is read in place by its owner,
		// which is done with it once its reply is back: the round is over,
		// and the next one's sweep may overwrite the bin.
		ships, owners := len(log.Ships), len(log.Owners)
		r.sweep(parts[lo:hi], r.st.extraLoad[lo:hi])
		more, replies := hi < len(parts), 0
		for d := 1; d < p; d++ {
			o := (me + d) % p
			bin := r.sh.bins[o]
			if len(bin.Branches) == 0 && more {
				continue // nothing to ask and nothing to announce
			}
			if len(bin.Branches) > 0 {
				replies++
			}
			bin.More = more
			r.pr.SendOffClock(o, tagRequest, bin)
		}
		for replies > 0 {
			payload, from, tag := r.pr.RecvOffClock(tagRequest, tagReply)
			if tag == tagRequest {
				serving -= r.serve(payload.(reqBin), from)
				continue
			}
			r.sh.reps[from] = payload.(repBin)
			replies--
		}
		r.fold(parts[lo:hi], log.Ships[ships:], log.Owners[owners:], res)
		if !more {
			break
		}
	}
	for serving > 0 {
		payload, from, _ := r.pr.RecvOffClock(tagRequest)
		serving -= r.serve(payload.(reqBin), from)
	}
}

// start readies the rank's log and per-owner buffers for a step's sweeps
// and returns the log.
func (r *shipRun) start() *shipLog {
	log := &r.sh.log
	log.Start = r.pr.Now()
	log.Flops, log.Ships, log.Owners = log.Flops[:0], log.Ships[:0], log.Owners[:0]
	if p := r.pr.NumProcs(); len(r.sh.bins) != p {
		r.sh.bins, r.sh.reps, r.sh.at = make([]reqBin, p), make([]repBin, p), make([]int32, p)
	}
	return log
}

// sweep runs the traversal of one round of the rank's own particles, eight
// at a time in particle order, then reads the packet back one lane — one
// particle — at a time: its charge is logged, its extra load goes to extra
// (aligned with round), and the branches it opened are shipped in the
// order its lone traversal would have met them. The ship sequence is
// therefore exactly that of a one-particle-at-a-time traversal. Each
// shipment goes to its owner's request, which takes the particle once and
// then the branch ordinals of its entries, in ship order.
func (r *shipRun) sweep(round []dist.Particle, extra []float64) {
	sh, st, log := r.sh, r.st, &r.sh.log
	force, deg := r.e.cfg.Mode == ForceMode, r.e.cfg.degreeOrMonopole()
	tf := st.flat
	sh.localF, sh.localP = sh.localF[:0], sh.localP[:0]
	for o := range sh.bins {
		sh.bins[o].Parts, sh.bins[o].Branches = sh.bins[o].Parts[:0], sh.bins[o].Branches[:0]
	}
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
			extra[k+l] = pk.Extra(l)
			if force {
				sh.localF = append(sh.localF, pk.Sum(l))
			} else {
				sh.localP = append(sh.localP, pk.Pot(l))
			}
			sh.deferred = pk.Deferred(l, sh.deferred[:0])
			ships := 0
			for _, node := range sh.deferred {
				b := tf.main.Branch(node)
				for _, o := range tf.ownersOf(b) {
					bin := &sh.bins[o]
					if last := len(bin.Parts) - 1; last < 0 || bin.Parts[last].Self != int32(q.ID) {
						bin.Parts = append(bin.Parts, reqPart{Pos: q.Pos, Self: int32(q.ID)})
					}
					bin.Parts[len(bin.Parts)-1].N++
					bin.Branches = append(bin.Branches, uint64(b))
					log.Owners = append(log.Owners, o)
					ships++
				}
			}
			log.Ships = append(log.Ships, int32(ships))
		}
	}
}

// fold adds a round's remote contributions to its particles' own sums in
// slot order — the traversal order, independent of which reply came first
// — and writes the results. ships and owners are the round's part of the
// log: a particle's slots name their owners, and each owner's reply holds
// its values in that owner's ship order, so one cursor per owner reads
// them. The replies are dropped once read.
func (r *shipRun) fold(round []dist.Particle, ships []int32, owners []uint16, res *Result) {
	sh := r.sh
	clear(sh.at)
	for i := range round {
		slots := owners[:ships[i]]
		owners = owners[ships[i]:]
		id := round[i].ID
		if r.e.cfg.Mode == ForceMode {
			f := sh.localF[i]
			for _, o := range slots {
				f = f.Add(sh.reps[o].F[sh.at[o]])
				sh.at[o]++
			}
			res.Accels[id] = f
		} else {
			phi := sh.localP[i]
			for _, o := range slots {
				phi += sh.reps[o].P[sh.at[o]]
				sh.at[o]++
			}
			res.Potentials[id] = phi
		}
	}
	clear(sh.reps)
}

// serve computes the requested subtree contributions and ships the
// results back: the essence of function shipping — the computation runs
// where the data is. It returns 1 if the bin was the requester's last.
func (r *shipRun) serve(bin reqBin, from int) int {
	if n := len(bin.Branches); n > 0 {
		rep := &r.sh.repTo[from]
		if r.e.cfg.Mode == ForceMode {
			rep.F = slices.Grow(rep.F[:0], n)[:n]
		} else {
			rep.P = slices.Grow(rep.P[:0], n)[:n]
		}
		r.servePackets(bin, rep)
		// Whatever rounds the entries came in, the protocol serves them in
		// bins: the k-th BinSize of them is one message, charged at once.
		bins, size := r.sh.log.Served[from], r.e.cfg.BinSize
		at := r.sh.servedFrom[from] % size // entries of the open bin
		for _, flops := range r.sh.flops[:n] {
			if at == 0 {
				bins = append(bins, 0)
			}
			bins[len(bins)-1] += flops
			if at++; at == size {
				at = 0
			}
		}
		r.sh.log.Served[from] = bins
		r.sh.servedFrom[from] += n
		r.pr.SendOffClock(from, tagReply, *rep)
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
// together, up to eight to a packet, from the branch's root in this rank's
// tree, which the rank's Flat names by the branch's ordinal; every lane is
// still its entry's lone traversal. An ordinal that names no cell of this
// rank's — none at all, when the request is corrupt — gets the lookup
// charge and an explicit zero.
func (r *shipRun) servePackets(bin reqBin, rep *repBin) {
	sh := r.sh
	sh.part, sh.base, sh.touched = sh.part[:0], sh.base[:0], sh.touched[:0]
	branches := bin.Branches
	for j, q := range bin.Parts {
		for _, ord := range branches[:q.N] {
			b := r.fl.OwnRoot(ord)
			if b >= 0 {
				if sh.fill[b] == 0 {
					sh.touched = append(sh.touched, b)
				}
				sh.fill[b]++
			}
			sh.part = append(sh.part, int32(j))
			sh.base = append(sh.base, b)
		}
		branches = branches[q.N:]
	}
	// Counting sort by branch: fill turns from counts into write cursors,
	// which end up at each group's end.
	var off int32
	for _, b := range sh.touched {
		off, sh.fill[b] = off+sh.fill[b], off
	}
	if n := len(bin.Branches); len(sh.order) < n {
		sh.order = make([]int32, n)
		sh.flops = make([]float64, n)
	}
	force, deg := r.e.cfg.Mode == ForceMode, r.e.cfg.degreeOrMonopole()
	lookup := r.st.lookup.cost()
	for i, b := range sh.base {
		if b >= 0 {
			sh.order[sh.fill[b]] = int32(i)
			sh.fill[b]++
			continue
		}
		// No cell of this rank's: only the lookup is charged, and the reply
		// is an explicit zero whatever rep held.
		sh.flops[i] = lookup
		if force {
			rep.F[i] = vec.V3{}
		} else {
			rep.P[i] = 0
		}
	}
	pk := &sh.served
	lo := int32(0)
	for _, b := range sh.touched {
		hi := sh.fill[b]
		sh.fill[b] = 0
		for ; lo < hi; lo += 8 {
			group := sh.order[lo:min(lo+8, hi)]
			for l, i := range group {
				q := &bin.Parts[sh.part[i]]
				pk.SetLane(l, q.Self, q.Pos)
			}
			r.fl.Below(pk, len(group), b)
			for l, i := range group {
				s := pk.Stats(l)
				r.st.stats.Add(s)
				sh.flops[i] = s.Flops(deg) + lookup
				if force {
					rep.F[i] = pk.Sum(l)
				} else {
					rep.P[i] = pk.Pot(l)
				}
			}
		}
		lo = hi
	}
}

// flatten readies the rank's flat tree for the sweep: the process's main
// region, the rank's own branch cells resolved to its tree, the other
// cells carrying no grafts — an opened branch is shipped, not resolved
// locally.
func (r *shipRun) flatten() {
	fl := r.e.letFlat(r.st.me) // the rank's reusable flat tree; a run ships one way only
	r.st.flat.reset(fl, r.st)
	fl.Seal()
	// fill is all zero between bins, so resizing it is all it needs.
	sh := r.sh
	if n := r.st.tree.NumNodes(); cap(sh.fill) < n {
		sh.fill = make([]int32, n)
	} else {
		sh.fill = sh.fill[:n]
	}
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
