package tree

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/vec"
)

// Node kinds of the sweep's kind column. A Tree uses the first two; the
// rest describe a locally essential tree (internal/let).
const (
	KindInternal   uint8 = iota // MAC; accept charges the node's Load, reject descends
	KindLeaf                    // particle range [Lo, Hi) of the particle columns
	KindTop                     // replicated summary: accept charges the lane's extra account
	KindBranch                  // branch cell: the rank's own subtree under it, or as KindTop with reject deferring its grafts
	KindBranchLeaf              // branch leaf cell: the rank's own subtree under it, or always deferred, no MAC
	KindClosed                  // summary-only section node: the MAC must accept
	KindStub                    // internal node whose children have not arrived: as KindInternal, but reject defers the node
)

// Cols is the structure-of-arrays storage the flat kernel walks: node
// columns in DFS order with skip pointers, and the leaf particle columns.
// Lo/Hi is a node's range: of the particle columns for a KindLeaf and for
// an internal node of a Tree, -1 otherwise; a branch kind's Lo is its
// branch ordinal, which Sweep.OwnRoot and Sweep.GraftLo are indexed by.
type Cols struct {
	Kind             []uint8
	ComX, ComY, ComZ []float64
	Mass, Side       []float64         // Side is the precomputed Box.LongestSide
	Exp              []*phys.Expansion // what potential mode evaluates at an accepted node; nil in force mode
	Skip, Lo, Hi     []int32           // Skip is the index just past the node's subtree
	ID               []int32
	PX, PY, PZ, PM   []float64
}

// AppendNode appends a childless node to c and returns its index; the
// caller patches Skip once an internal node's subtree is complete.
func AppendNode(c *Cols, kind uint8, com vec.V3, mass, side float64, exp *phys.Expansion, lo, hi int32) int32 {
	idx := int32(len(c.Kind))
	c.Kind = append(c.Kind, kind)
	c.ComX = append(c.ComX, com.X)
	c.ComY = append(c.ComY, com.Y)
	c.ComZ = append(c.ComZ, com.Z)
	c.Mass = append(c.Mass, mass)
	c.Side = append(c.Side, side)
	c.Exp = append(c.Exp, exp)
	c.Skip = append(c.Skip, idx+1)
	c.Lo = append(c.Lo, lo)
	c.Hi = append(c.Hi, hi)
	return idx
}

// Reset truncates every column, keeping capacity.
func (c *Cols) Reset() {
	c.Kind = c.Kind[:0]
	c.ComX, c.ComY, c.ComZ = c.ComX[:0], c.ComY[:0], c.ComZ[:0]
	c.Mass, c.Side = c.Mass[:0], c.Side[:0]
	c.Exp = c.Exp[:0]
	c.Skip, c.Lo, c.Hi = c.Skip[:0], c.Lo[:0], c.Hi[:0]
	c.ID = c.ID[:0]
	c.PX, c.PY, c.PZ, c.PM = c.PX[:0], c.PY[:0], c.PZ[:0], c.PM[:0]
}

// CheckWalk reports whether a sweep can walk c in bounds: what Sweep.sweep
// assumes of every node set it descends, and what descendAVX2, which reads
// the columns without bounds checks, relies on. The node columns (Exp
// aside) are as long as Kind and the particle columns as long as ID; each
// node's Skip lies past it and within its parent's; each leaf's [Lo, Hi)
// lies within the particles; and nodes nest at most MaxDepth+2 deep, the
// frames a packet starts with. Node sets built by this package hold all of
// these; a receiver checks a node set it decoded. A branch kind's Lo
// indexes the sweep's OwnRoot (and GraftLo), which CheckWalk does not see:
// the fused descent hands an ordinal outside OwnRoot to the Go loop, and
// only a main region, built on the host, holds branch kinds — a received
// section cannot, since its wire codes name internal, closed and leaf
// nodes alone.
func (c *Cols) CheckWalk() error {
	n, m := len(c.Kind), len(c.ID)
	for _, l := range [...]int{len(c.Skip), len(c.ComX), len(c.ComY), len(c.ComZ), len(c.Mass), len(c.Side), len(c.Lo), len(c.Hi)} {
		if l != n {
			return fmt.Errorf("%d nodes with a node column of %d", n, l)
		}
	}
	for _, l := range [...]int{len(c.PX), len(c.PY), len(c.PZ), len(c.PM)} {
		if l != m {
			return fmt.Errorf("%d particles with a particle column of %d", m, l)
		}
	}
	var open [MaxDepth + 2]int32 // the Skips of the nodes enclosing node i
	d := 0
	for i := int32(0); i < int32(n); i++ {
		for d > 0 && open[d-1] == i {
			d--
		}
		end := int32(n)
		if d > 0 {
			end = open[d-1]
		}
		skip := c.Skip[i]
		if skip <= i || skip > end {
			return fmt.Errorf("node %d skips to %d, outside (%d, %d]", i, skip, i, end)
		}
		if c.Kind[i] == KindLeaf && (c.Lo[i] < 0 || c.Lo[i] > c.Hi[i] || c.Hi[i] > int32(m)) {
			return fmt.Errorf("leaf %d holds particles [%d, %d) of %d", i, c.Lo[i], c.Hi[i], m)
		}
		if skip > i+1 {
			if d == len(open) {
				return fmt.Errorf("nodes nest deeper than %d levels", len(open))
			}
			open[d] = skip
			d++
		}
	}
	return nil
}

const lanes = 8

// frame is one open node of a packet's descent: the lanes that rejected
// it and, per lane, the partial sum of what lies below it (potential mode
// sums in x alone). Closing the frame folds each lane's sum into the
// enclosing frame, so every lane sees exactly the push/fold reduction tree
// of a lone traversal. The fused descent reads the fields by offset
// (go_asm.h), as it does Packet's and Cols'.
type frame struct {
	mask    uint8 // the lanes taking part, bit l for lane l
	end     int32
	x, y, z [lanes]float64
}

// lanesIn lists the lanes of each mask in ascending order.
var lanesIn = func() (t [1 << lanes][]uint8) {
	for m := range t {
		for l := uint8(0); l < lanes; l++ {
			if m>>l&1 != 0 {
				t[m] = append(t[m], l)
			}
		}
	}
	return t
}()

// deferral records that the lanes of the mask opened remote branch node.
type deferral struct {
	node  int32
	lanes uint8
}

func (f *frame) open(end int32, init float64) {
	f.end = end
	for _, l := range lanesIn[f.mask] {
		f.x[l], f.y[l], f.z[l] = init, init, init
	}
}

// Packet is the scratch and the outcome of one packet: up to eight query
// particles descending together. The drivers keep one per worker; function
// shipping drives two by hand (SetLane, then Sweep.Defer or Sweep.Below) —
// one for a rank's own particles and one for the requests it serves,
// which arrive while the first one's lanes are still being read.
type Packet struct {
	loads       [][]int64 // per segment: where node Load charges land
	ld          []int64   // the segment being swept's
	stats       Stats     // the driver's running total over the worker's packets
	frames      []frame
	id          [lanes]int32
	px, py, pz  [lanes]float64
	extra       [lanes]float64
	mac, pc, pp [lanes]int64 // per-lane interaction counts
	defers      []deferral
	irr         []complex128 // potential mode: the harmonics of one expansion evaluation
	buf         []int64      // a driver worker's loads, one window per segment
}

// SetLane places query particle (id, pos) in lane l of the next sweep.
func (p *Packet) SetLane(l int, id int32, pos vec.V3) {
	p.id[l] = id
	p.px[l], p.py[l], p.pz[l] = pos.X, pos.Y, pos.Z
}

// Sum is lane l's accumulated acceleration.
func (p *Packet) Sum(l int) vec.V3 {
	f := &p.frames[0]
	return vec.V3{X: f.x[l], Y: f.y[l], Z: f.z[l]}
}

// Pot is lane l's accumulated potential.
func (p *Packet) Pot(l int) float64 { return p.frames[0].x[l] }

// Extra is lane l's sum of exAdd over accepted KindTop/KindBranch summaries.
func (p *Packet) Extra(l int) float64 { return p.extra[l] }

// Stats is lane l's own interaction counts.
func (p *Packet) Stats(l int) Stats { return Stats{MACTests: p.mac[l], PC: p.pc[l], PP: p.pp[l]} }

// Deferred appends to nodes the remote branches (Sweep.Defer) or stubs
// (Sweep.Below) lane l opened, in the order its lone traversal met them.
func (p *Packet) Deferred(l int, nodes []int32) []int32 {
	for _, df := range p.defers {
		if df.lanes>>l&1 != 0 {
			nodes = append(nodes, df.node)
		}
	}
	return nodes
}

// Seg names one of a sweep's node-index spaces: the main region, the
// rank's own tree, or a grafted section (SecSeg).
type Seg int

const (
	SegMain Seg = iota // the Sweep's own Cols, swept from a root
	SegOwn             // Sweep.Own
)

// SecSeg is grafted section k, Sweep.Secs[k].
func SecSeg(k int) Seg { return Seg(2 + k) }

// Sweep is the traversal of its Cols, in force mode and in potential mode,
// shared by Tree (AccelSweep, PotentialSweep) and let.Flat: particles
// descend in packets of up to eight neighbours in leaf order, so node
// columns are read once per packet and the lanes' sqrt/div chains are
// independent work the core overlaps. Each lane's contributions still
// arrive in its own DFS order and fold through its own per-depth
// accumulators, which is why accelerations, potentials, Stats, Load and
// extra charges are bit-identical to one-particle-at-a-time recursion.
// The two modes differ in the two term routines alone: what an accepted
// node adds (mac, macPot) and what a leaf adds (leaf, leafPot). Where the
// CPU has AVX2 (useAVX2), force mode's descent runs as one assembly
// routine per packet (descendAVX2, packet_amd64.s) that walks the internal,
// leaf and summary nodes and other ranks' branch cells, all eight lanes at
// once, with the same bits as the Go loop and term bodies, which are the
// generic path.
//
// A locally essential tree is read where its parts live, not copied into
// one set of columns. The main region (Cols) may be shared by every rank
// of a process; its branch cells resolve through the rank's tables. A
// cell the rank owns is swept in Own, from OwnRoot[b] to its Skip, inline
// in the frame stack — exactly as if the subtree sat in the main region.
// Any other cell is a summary whose reject defers the sections
// Grafts[GraftLo[b]:GraftLo[b+1]] name, each swept from its node 0.
type Sweep struct {
	Cols
	Own     *Cols     // the rank's own tree
	Secs    []*Cols   // grafted sections
	OwnRoot []int32   // per branch ordinal: its root in Own, -1 for another rank's cell
	GraftLo []int32   // per branch ordinal (and one past the last): its range of Grafts
	Grafts  []int32   // a section index per owner of a cell, in owner order; -1 where nothing was shipped
	Loads   [][]int64 // per Seg: where node Load charges land; each as long as its segment
	workers []Packet
	order   []int32         // ps indices in sweep order: packet k is order[8k:8k+8]
	index   map[int32]int32 // particle ID → ps index, while planning
	// Parameters of the sweep in progress.
	alpha, a2, e2, exAdd float64
	potential            bool
}

// seg returns the columns of segment g.
func (s *Sweep) seg(g Seg) *Cols {
	switch g {
	case SegMain:
		return &s.Cols
	case SegOwn:
		return s.Own
	}
	return s.Secs[g-2]
}

// The MAC prefilter decides side/√n2 < α from side² ≶ α²·n2 without the
// sqrt and divide. Each side of that comparison carries at most a few
// 2⁻⁵³ relative roundings while the exact test's quotient carries two, so
// a 1e-12 margin cannot flip the outcome; only the sliver in between pays
// for the exact test. macA2 and macS2 poison (NaN) operands outside the
// range where those relative bounds hold, which sends every comparison to
// the exact test.
const (
	macLo = 1 - 1e-12
	macHi = 1 + 1e-12

	macSideMin, macSideMax = 0x1p-300, 0x1p300 // macS2's range
)

func macA2(alpha float64) float64 {
	if alpha >= 0x1p-250 && alpha <= 0x1p250 {
		return alpha * alpha
	}
	return math.NaN()
}

func macS2(side float64) float64 {
	if side >= macSideMin && side <= macSideMax {
		return side * side
	}
	return math.NaN()
}

// closedRejected is the panic of a sweep whose MAC rejects a KindClosed
// node: the section's sender judged every lane of the receiver to accept it.
const closedRejected = "tree: essential-set criterion violated (closed node rejected by MAC)"

// macAccepts is Accepts over precomputed operands: n2 = ‖pos−com‖².
func macAccepts(s2, side, n2, a2, alpha float64) bool {
	t := a2 * n2
	if s2 < t*macLo {
		return true
	}
	if s2 > t*macHi {
		return false
	}
	d := math.Sqrt(n2)
	return d != 0 && side/d < alpha
}

// ForceAll computes the acceleration of every particle of ps against the
// subtree at main-region node root, host-parallel over packets. out (and
// extra, when non-nil: the per-particle sum of exAdd over accepted
// KindTop/KindBranch summaries) are indexed like ps; per-node Load charges
// are added to Loads. Results do not depend on GOMAXPROCS or on how ps is
// ordered.
func (s *Sweep) ForceAll(ps []dist.Particle, root int32, alpha, eps, exAdd float64, out []vec.V3, extra []float64) Stats {
	s.Begin(alpha, eps, exAdd, false)
	return s.all(ps, root, out, nil, extra)
}

// PotentialAll is ForceAll for potentials: accepted nodes evaluate their
// expansion (the Exp column), leaves sum unsoftened point potentials.
func (s *Sweep) PotentialAll(ps []dist.Particle, root int32, alpha, exAdd float64, out []float64, extra []float64) Stats {
	s.Begin(alpha, 0, exAdd, true)
	return s.all(ps, root, nil, out, extra)
}

// all is the driver under ForceAll and PotentialAll: it sweeps ps in
// packets from root under the parameters Begin fixed and writes acc or
// pot, whichever the mode produces. Each worker charges its own window of
// every segment's loads; the windows are added to Loads at the end.
func (s *Sweep) all(ps []dist.Particle, root int32, acc []vec.V3, pot, extra []float64) Stats {
	if len(ps) == 0 {
		return Stats{}
	}
	s.plan(ps, root)
	packets := (len(ps) + lanes - 1) / lanes
	workers := compute.Workers(packets)
	for len(s.workers) < workers {
		s.workers = append(s.workers, Packet{})
	}
	total := 0
	for _, ld := range s.Loads {
		total += len(ld)
	}
	for w := range s.workers[:workers] {
		wk := &s.workers[w]
		wk.buf = append(wk.buf[:0], make([]int64, total)...)
		wk.loads = wk.loads[:0]
		off := 0
		for _, ld := range s.Loads {
			wk.loads = append(wk.loads, wk.buf[off:off+len(ld)])
			off += len(ld)
		}
		wk.stats = Stats{}
	}
	// Workers pull batches of packets: leaf order is spatial, so equal
	// contiguous shares would not be equal work.
	const batch = 16
	var next atomic.Int64
	compute.ParallelBlocks(workers, func(w, _, _ int) {
		wk := &s.workers[w]
		for {
			hi := int(next.Add(batch))
			for k := hi - batch; k < min(hi, packets); k++ {
				s.packet(wk, ps, s.order[k*lanes:min((k+1)*lanes, len(ps))], root, acc, pot, extra)
			}
			if hi >= packets {
				return
			}
		}
	})
	var stats Stats
	for w := range s.workers[:workers] {
		stats.Add(s.workers[w].stats)
		for g, ld := range s.workers[w].loads {
			to := s.Loads[g]
			for j, v := range ld {
				if v != 0 {
					to[j] += v
				}
			}
		}
	}
	return stats
}

// plan fills s.order with the sweep order of ps: leaf order below root
// (the main region's leaves and, under an own branch cell, Own's) when ps
// is the particle set those leaves hold (matched by ID), so a packet's
// lanes share most of their path; the order given otherwise.
func (s *Sweep) plan(ps []dist.Particle, root int32) {
	n := len(ps)
	if s.index == nil {
		s.index = make(map[int32]int32, n)
	}
	clear(s.index)
	for i := range ps {
		s.index[int32(ps[i].ID)] = int32(i)
	}
	s.order = s.order[:0]
	s.planLeaves(&s.Cols, root, s.Skip[root])
	if len(s.order) == n {
		return
	}
	s.order = s.order[:0]
	for i := range ps {
		s.order = append(s.order, int32(i))
	}
}

// planLeaves appends to s.order, in leaf order, the ps index of every
// particle of ps held by the leaves among nodes [first, end) of c,
// descending into Own under the rank's own branch cells.
func (s *Sweep) planLeaves(c *Cols, first, end int32) {
	for i := first; i < end; i++ {
		switch c.Kind[i] {
		case KindLeaf:
			for _, id := range c.ID[c.Lo[i]:c.Hi[i]] {
				if j, ok := s.index[id]; ok {
					delete(s.index, id)
					s.order = append(s.order, j)
				}
			}
		case KindBranch, KindBranchLeaf:
			if own := s.OwnRoot[c.Lo[i]]; own >= 0 {
				s.planLeaves(s.Own, own, s.Own.Skip[own])
			}
		}
	}
}

// Begin fixes the mode and parameters of the Defer and Below sweeps that
// follow. Potential mode is unsoftened: it does not use eps.
func (s *Sweep) Begin(alpha, eps, exAdd float64, potential bool) {
	if potential {
		eps = 0
	}
	s.alpha, s.a2, s.e2, s.exAdd, s.potential = alpha, macA2(alpha), eps*eps, exAdd, potential
}

// packet sweeps one packet: the main region from root, then — lanes that
// deferred the same branch together — the sections grafted under each
// deferred branch. Branches are deferred in DFS order and their grafts
// are in owner order, so every lane folds its sections in its own defer
// order: the slot order in which function shipping folds its replies.
func (s *Sweep) packet(w *Packet, ps []dist.Particle, idx []int32, root int32, acc []vec.V3, pot, extra []float64) {
	for l, i := range idx {
		w.SetLane(l, int32(ps[i].ID), ps[i].Pos)
	}
	w.lanesOf(len(idx), w.loads)
	s.sweep(w, SegMain, root, s.Skip[root], negZero)
	ax, ay, az := w.frames[0].x, w.frames[0].y, w.frames[0].z
	for _, df := range w.defers {
		b := s.Lo[df.node]
		for _, k := range s.Grafts[s.GraftLo[b]:s.GraftLo[b+1]] {
			if k < 0 {
				panic("tree: essential section missing for deferred branch")
			}
			w.frames[0].mask = df.lanes
			s.below(w, SecSeg(int(k)), 0)
			f := &w.frames[0]
			for _, l := range lanesIn[f.mask] {
				ax[l] += f.x[l]
				ay[l] += f.y[l]
				az[l] += f.z[l]
			}
		}
	}
	for l, i := range idx {
		if extra != nil {
			extra[i] = w.extra[l]
		}
		w.stats.Add(w.Stats(l))
	}
	if s.potential {
		for l, i := range idx {
			pot[i] = ax[l]
		}
		return
	}
	for l, i := range idx {
		acc[i] = vec.V3{X: ax[l], Y: ay[l], Z: az[l]}
	}
}

// negZero is −0, the additive identity: a traversal's result begun from it
// is the root's contribution unchanged, never folded into anything.
var negZero = math.Copysign(0, -1)

// lanesOf readies p for a sweep of its first n lanes, charging loads.
func (p *Packet) lanesOf(n int, loads [][]int64) {
	if p.frames == nil {
		p.frames = make([]frame, MaxDepth+2)
	}
	p.loads = loads
	p.frames[0].mask = uint8(1<<n - 1)
	for l := 0; l < n; l++ {
		p.extra[l] = 0
		p.mac[l], p.pc[l], p.pp[l] = 0, 0, 0
	}
	p.defers = p.defers[:0]
}

// Defer sweeps the main region from root for the first n lanes of p as
// one packet and leaves the remote branches they opened unresolved: each
// lane's Sum, Extra and Stats cover the main region (and the rank's own
// subtrees) alone, and Deferred lists what the lane's owner must still
// add, in order. Node Load charges are added to Loads. Function shipping's
// requester side.
func (s *Sweep) Defer(p *Packet, n int, root int32) {
	p.lanesOf(n, s.Loads)
	s.sweep(p, SegMain, root, s.Skip[root], negZero)
	p.loads, p.ld = nil, nil
}

// Below sweeps what lies under node base of segment g for the first n
// lanes of p: the service of a branch whose cell the lanes' requesters
// already rejected. Function shipping's owner side, and data shipping's
// over a fetched section, whose stubs Deferred lists.
func (s *Sweep) Below(p *Packet, n int, g Seg, base int32) {
	p.lanesOf(n, s.Loads)
	s.below(p, g, base)
	p.loads, p.ld = nil, nil
}

// below sweeps the lanes of w.frames[0] through base's children — or its
// particles, when base is a leaf — charging base one visit per lane, and
// leaves each lane's sum, accumulated from +0, in that frame.
func (s *Sweep) below(w *Packet, g Seg, base int32) {
	c := s.seg(g)
	first := base
	if c.Kind[base] != KindLeaf {
		w.loads[g][base] += int64(bits.OnesCount8(w.frames[0].mask))
		first++
	}
	s.sweep(w, g, first, c.Skip[base], 0)
}

// sweep walks nodes [first, end) of segment g for the lanes of
// w.frames[0], leaving each lane's sum — accumulated from init — in that
// frame. A branch cell of the rank's own is walked in Own from its root,
// in the same frame stack: the frames opened there close at that
// subtree's end (ownEnd) when the stack is back at the depth it was
// entered at (ownD), and the walk resumes in the main region. In force
// mode with useAVX2, descendAVX2 runs the loop below for as long as it
// meets internal, leaf, top and closed nodes and other ranks' branch cells
// while the defers have room; the loop's own body then takes the one node
// or segment switch it stopped at.
func (s *Sweep) sweep(w *Packet, g Seg, first, end int32, init float64) {
	c := s.seg(g)
	w.ld = w.loads[g]
	d := 0
	ownD, ownEnd, resume := -1, int32(-1), int32(0)
	f := &w.frames[0]
	f.open(end, init)
	fused := useAVX2 && !s.potential
	for i := first; ; {
		if fused {
			ni, nd := descendAVX2(w, c, &avx, s.OwnRoot, int(i), d, ownD, int(ownEnd), s.alpha, s.a2, s.e2, s.exAdd)
			if nd < 0 {
				panic(closedRejected)
			}
			i, d = int32(ni), nd
			f = &w.frames[d]
		}
		for i == f.end && d > ownD {
			if d == 0 {
				return
			}
			d--
			up := &w.frames[d]
			for _, l := range lanesIn[f.mask] {
				up.x[l] += f.x[l]
				up.y[l] += f.y[l]
				up.z[l] += f.z[l]
			}
			f = up
		}
		if i == ownEnd && d == ownD {
			c, w.ld, i = &s.Cols, w.loads[SegMain], resume
			ownD, ownEnd = -1, -1
			continue
		}
		kind := c.Kind[i]
		if kind == KindLeaf {
			lo, hi := c.Lo[i], c.Hi[i]
			w.ld[i] += int64(bits.OnesCount8(f.mask)) * int64(hi-lo)
			if s.potential {
				s.leafPot(w, c, f, lo, hi)
			} else {
				s.leaf(w, c, f, lo, hi)
			}
			i = c.Skip[i]
			continue
		}
		if kind == KindBranch || kind == KindBranchLeaf {
			if own := s.OwnRoot[c.Lo[i]]; own >= 0 {
				ownD, ownEnd, resume = d, s.Own.Skip[own], c.Skip[i]
				c, w.ld, i = s.Own, w.loads[SegOwn], own
				continue
			}
		}
		if d+2 > len(w.frames) {
			w.frames = append(w.frames, frame{})
			f = &w.frames[d]
		}
		sub := &w.frames[d+1]
		if kind == KindBranchLeaf {
			sub.mask = f.mask
		} else if summary := kind == KindTop || kind == KindBranch; s.potential {
			sub.mask = s.macPot(w, c, f, i, summary)
		} else {
			sub.mask = s.mac(w, c, f, i, summary)
		}
		switch {
		case sub.mask == 0:
			i = c.Skip[i]
		case kind == KindInternal || kind == KindTop:
			d++
			f = sub
			f.open(c.Skip[i], 0)
			i++
		case kind == KindClosed:
			panic(closedRejected)
		default:
			// A deferred branch contributes an explicit zero here (not a
			// no-op under signed zeros); its sections fold in later. A
			// stub's lanes are swept again once its children arrive.
			for _, l := range lanesIn[sub.mask] {
				f.x[l] += 0
				f.y[l] += 0
				f.z[l] += 0
			}
			w.defers = append(w.defers, deferral{node: i, lanes: sub.mask})
			i = c.Skip[i]
		}
	}
}

// mac runs node i's acceptance test for the lanes of f: accepted lanes add
// the cluster term — sharing the MAC's difference vector, whose squares
// are sign-invariant — the extra charge and a PC count, and are charged;
// mac returns the rejected lanes.
func (s *Sweep) mac(w *Packet, c *Cols, f *frame, i int32, summary bool) uint8 {
	ex := 0.0
	if summary {
		ex = s.exAdd
	}
	cx, cy, cz, side := c.ComX[i], c.ComY[i], c.ComZ[i], c.Side[i]
	s2, gm := macS2(side), phys.G*c.Mass[i]
	var acc uint8
	for _, l := range lanesIn[f.mask] {
		dx, dy, dz := cx-w.px[l], cy-w.py[l], cz-w.pz[l]
		n2 := dx*dx + dy*dy + dz*dz
		w.mac[l]++
		if !macAccepts(s2, side, n2, s.a2, s.alpha) {
			continue
		}
		inv := 1 / math.Sqrt(n2+s.e2) // n2 > 0, so never a zero divide
		g := gm * inv * inv * inv
		f.x[l] += g * dx
		f.y[l] += g * dy
		f.z[l] += g * dz
		w.extra[l] += ex
		w.pc[l]++
		acc |= 1 << l
	}
	if !summary {
		w.ld[i] += int64(bits.OnesCount8(acc))
	}
	return f.mask &^ acc
}

// macPot is mac in potential mode: an accepted lane adds the node's
// expansion evaluated at its position.
func (s *Sweep) macPot(w *Packet, c *Cols, f *frame, i int32, summary bool) uint8 {
	cx, cy, cz, side := c.ComX[i], c.ComY[i], c.ComZ[i], c.Side[i]
	s2, e := macS2(side), c.Exp[i]
	if e != nil && len(w.irr) < len(e.C) {
		w.irr = make([]complex128, len(e.C))
	}
	ex := 0.0
	if summary {
		ex = s.exAdd
	}
	var acc uint8
	for _, l := range lanesIn[f.mask] {
		dx, dy, dz := cx-w.px[l], cy-w.py[l], cz-w.pz[l]
		n2 := dx*dx + dy*dy + dz*dz
		w.mac[l]++
		if !macAccepts(s2, side, n2, s.a2, s.alpha) {
			continue
		}
		if e == nil {
			panic("tree: potential sweep accepted a node that has no expansion: Tree.BuildExpansions (a LET section: BuildSection's withExp) must run before the sweep")
		}
		f.x[l] += e.EvalPotentialScratch(vec.V3{X: w.px[l], Y: w.py[l], Z: w.pz[l]}, w.irr)
		w.extra[l] += ex
		w.pc[l]++
		acc |= 1 << l
	}
	if !summary {
		w.ld[i] += int64(bits.OnesCount8(acc))
	}
	return f.mask &^ acc
}

// leaf adds, for every lane of f, the direct sum over particle columns
// [lo, hi) — folded from a zero accumulator in column order, phys.Accel
// term by term — to the lane's partial sum.
func (s *Sweep) leaf(w *Packet, c *Cols, f *frame, lo, hi int32) {
	ids, px, py, pz, pm := c.ID[lo:hi], c.PX[lo:hi], c.PY[lo:hi], c.PZ[lo:hi], c.PM[lo:hi]
	e2 := s.e2
	act := lanesIn[f.mask]
	var ax, ay, az [lanes]float64
	for j, id := range ids {
		x, y, z, gm := px[j], py[j], pz[j], phys.G*pm[j]
		for _, l := range act {
			if id == w.id[l] {
				w.pp[l]--
				continue
			}
			dx, dy, dz := x-w.px[l], y-w.py[l], z-w.pz[l]
			r2 := dx*dx + dy*dy + dz*dz + e2
			// phys.Accel's zero vector at r2 == 0 adds nothing: a sum
			// begun at +0 is never −0, so x+0 is x.
			if r2 != 0 {
				inv := 1 / math.Sqrt(r2)
				g := gm * inv * inv * inv
				ax[l] += g * dx
				ay[l] += g * dy
				az[l] += g * dz
			}
		}
	}
	for _, l := range act {
		w.pp[l] += int64(hi - lo)
		f.x[l] += ax[l]
		f.y[l] += ay[l]
		f.z[l] += az[l]
	}
}

// leafPot is leaf in potential mode: phys.Potential, unsoftened, term by
// term.
func (s *Sweep) leafPot(w *Packet, c *Cols, f *frame, lo, hi int32) {
	ids, px, py, pz, pm := c.ID[lo:hi], c.PX[lo:hi], c.PY[lo:hi], c.PZ[lo:hi], c.PM[lo:hi]
	act := lanesIn[f.mask]
	var phi [lanes]float64
	for j, id := range ids {
		x, y, z, gm := px[j], py[j], pz[j], -phys.G*pm[j]
		for _, l := range act {
			if id == w.id[l] {
				w.pp[l]--
				continue
			}
			dx, dy, dz := x-w.px[l], y-w.py[l], z-w.pz[l]
			// phys.Potential's zero at r2 == 0 adds nothing, as in leaf.
			if r2 := dx*dx + dy*dy + dz*dz; r2 != 0 {
				phi[l] += gm / math.Sqrt(r2)
			}
		}
	}
	for _, l := range act {
		w.pp[l] += int64(hi - lo)
		f.x[l] += phi[l]
	}
}
