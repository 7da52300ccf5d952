package tree

import (
	"math"
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
	KindBranch                  // remote branch cell: as KindTop, but reject defers its grafts
	KindBranchLeaf              // remote leaf cell: always defers, no MAC
	KindClosed                  // summary-only section node: the MAC must accept
)

// Cols is the structure-of-arrays storage the flat kernel walks: node
// columns in DFS order with skip pointers, and the leaf particle columns.
// Lo/Hi is a node's range: of the particle columns for a KindLeaf and for
// an internal node built by (or copied from) a Tree, of Graft for a branch
// kind, -1 otherwise. Graft (LET only) names the root node of each section
// grafted under a branch, or -1 where the owner proved the branch is never
// opened.
type Cols struct {
	Kind             []uint8
	ComX, ComY, ComZ []float64
	Mass, Side       []float64         // Side is the precomputed Box.LongestSide
	Exp              []*phys.Expansion // what potential mode evaluates at an accepted node; nil in force mode
	Skip, Lo, Hi     []int32           // Skip is the index just past the node's subtree
	ID               []int32
	PX, PY, PZ, PM   []float64
	Graft            []int32
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
	c.Graft = c.Graft[:0]
}

const lanes = 8

// frame is one open node of a packet's descent: the lanes that rejected
// it and, per lane, the partial sum of what lies below it (potential mode
// sums in x alone). Closing the frame folds each lane's sum into the
// enclosing frame, so every lane sees exactly the push/fold reduction tree
// of a lone traversal.
type frame struct {
	laneSet
	end     int32
	x, y, z [lanes]float64
}

// laneSet is a compact list of the packet lanes taking part in something.
type laneSet struct {
	n    int
	lane [lanes]uint8
}

// deferral records that the lanes of the mask opened remote branch node.
type deferral struct {
	node  int32
	lanes uint8
}

func (f *frame) open(end int32, init float64) {
	f.end = end
	for _, l := range f.lane[:f.n] {
		f.x[l], f.y[l], f.z[l] = init, init, init
	}
}

// Packet is the scratch and the outcome of one packet: up to eight query
// particles descending together. The drivers keep one per worker; function
// shipping drives two by hand (SetLane, then Sweep.Defer or Sweep.Below) —
// one for a rank's own particles and one for the requests it serves,
// which arrive while the first one's lanes are still being read.
type Packet struct {
	loads       []int64
	stats       Stats // the driver's running total over the worker's packets
	frames      []frame
	id          [lanes]int32
	px, py, pz  [lanes]float64
	extra       [lanes]float64
	mac, pc, pp [lanes]int64 // per-lane interaction counts
	defers      []deferral
	irr         []complex128 // potential mode: the harmonics of one expansion evaluation
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

// Deferred appends to nodes the remote branch nodes lane l opened during
// Sweep.Defer, in the order its lone traversal would have met them.
func (p *Packet) Deferred(l int, nodes []int32) []int32 {
	for _, df := range p.defers {
		if df.lanes>>l&1 != 0 {
			nodes = append(nodes, df.node)
		}
	}
	return nodes
}

// Sweep is the traversal of its Cols, in force mode and in potential mode,
// shared by Tree (AccelSweep, PotentialSweep) and let.Flat: particles
// descend in packets of up to eight neighbours in leaf order, so node
// columns are read once per packet and the lanes' sqrt/div chains are
// independent work the core overlaps. Each lane's contributions still
// arrive in its own DFS order and fold through its own per-depth
// accumulators, which is why accelerations, potentials, Stats, Load and
// extra charges are bit-identical to one-particle-at-a-time recursion.
// The two modes differ in the two term routines alone: what an accepted
// node adds (mac, macPot) and what a leaf adds (leaf, leafPot).
type Sweep struct {
	Cols
	workers []Packet
	order   []int32         // ps indices in sweep order: packet k is order[8k:8k+8]
	index   map[int32]int32 // particle ID → ps index, while planning
	// Parameters of the sweep in progress.
	alpha, a2, e2, exAdd float64
	potential            bool
}

// AddNode appends a childless node and returns its index; the caller
// patches Skip once an internal node's subtree is complete.
func (s *Sweep) AddNode(kind uint8, com vec.V3, mass, side float64, exp *phys.Expansion, lo, hi int32) int32 {
	idx := int32(len(s.Kind))
	s.Kind = append(s.Kind, kind)
	s.ComX = append(s.ComX, com.X)
	s.ComY = append(s.ComY, com.Y)
	s.ComZ = append(s.ComZ, com.Z)
	s.Mass = append(s.Mass, mass)
	s.Side = append(s.Side, side)
	s.Exp = append(s.Exp, exp)
	s.Skip = append(s.Skip, idx+1)
	s.Lo = append(s.Lo, lo)
	s.Hi = append(s.Hi, hi)
	return idx
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
)

func macA2(alpha float64) float64 {
	if alpha >= 0x1p-250 && alpha <= 0x1p250 {
		return alpha * alpha
	}
	return math.NaN()
}

func macS2(side float64) float64 {
	if side >= 0x1p-300 && side <= 0x1p300 {
		return side * side
	}
	return math.NaN()
}

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
// subtree at root, host-parallel over packets. out (and extra, when
// non-nil: the per-particle sum of exAdd over accepted KindTop/KindBranch
// summaries) are indexed like ps; per-node Load charges are added to
// loads. Results do not depend on GOMAXPROCS or on how ps is ordered.
func (s *Sweep) ForceAll(ps []dist.Particle, root int32, alpha, eps, exAdd float64, out []vec.V3, extra []float64, loads []int64) Stats {
	s.Begin(alpha, eps, exAdd, false)
	return s.all(ps, root, out, nil, extra, loads)
}

// PotentialAll is ForceAll for potentials: accepted nodes evaluate their
// expansion (the Exp column), leaves sum unsoftened point potentials.
func (s *Sweep) PotentialAll(ps []dist.Particle, root int32, alpha, exAdd float64, out []float64, extra []float64, loads []int64) Stats {
	s.Begin(alpha, 0, exAdd, true)
	return s.all(ps, root, nil, out, extra, loads)
}

// all is the driver under ForceAll and PotentialAll: it sweeps ps in
// packets from root under the parameters Begin fixed and writes acc or
// pot, whichever the mode produces.
func (s *Sweep) all(ps []dist.Particle, root int32, acc []vec.V3, pot, extra []float64, loads []int64) Stats {
	if len(ps) == 0 {
		return Stats{}
	}
	s.plan(ps, root)
	packets := (len(ps) + lanes - 1) / lanes
	workers := compute.Workers(packets)
	for len(s.workers) < workers {
		s.workers = append(s.workers, Packet{})
	}
	for w := range s.workers[:workers] {
		wk := &s.workers[w]
		wk.loads = append(wk.loads[:0], make([]int64, len(s.Kind))...)
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
		for j, v := range s.workers[w].loads {
			if v != 0 {
				loads[j] += v
			}
		}
	}
	return stats
}

// plan fills s.order with the sweep order of ps: leaf order below root
// when ps is the tree's own particle set (matched by ID), so a packet's
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
	for i := root; i < s.Skip[root] && len(s.index)+len(s.order) == n; i++ {
		if s.Kind[i] != KindLeaf {
			continue
		}
		for _, id := range s.ID[s.Lo[i]:s.Hi[i]] {
			if j, ok := s.index[id]; ok {
				delete(s.index, id)
				s.order = append(s.order, j)
			}
		}
	}
	if len(s.order) == n {
		return
	}
	s.order = s.order[:0]
	for i := range ps {
		s.order = append(s.order, int32(i))
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

// packet sweeps one packet: the main tree from root, then — lanes that
// deferred the same branch together — the sections grafted under each
// deferred branch. Branches are deferred in DFS order and their grafts
// are in owner order, so every lane folds its sections in its own defer
// order: the slot order in which function shipping folds its replies.
func (s *Sweep) packet(w *Packet, ps []dist.Particle, idx []int32, root int32, acc []vec.V3, pot, extra []float64) {
	for l, i := range idx {
		w.SetLane(l, int32(ps[i].ID), ps[i].Pos)
	}
	s.Defer(w, len(idx), root, w.loads)
	ax, ay, az := w.frames[0].x, w.frames[0].y, w.frames[0].z
	for _, df := range w.defers {
		for _, base := range s.Graft[s.Lo[df.node]:s.Hi[df.node]] {
			if base < 0 {
				panic("tree: essential section missing for deferred branch")
			}
			f := &w.frames[0]
			f.n = 0
			for l := uint8(0); l < lanes; l++ {
				if df.lanes>>l&1 != 0 {
					f.lane[f.n] = l
					f.n++
				}
			}
			s.below(w, base)
			f = &w.frames[0]
			for _, l := range f.lane[:f.n] {
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

// lanesOf readies p for a sweep of its first n lanes, charging loads.
func (p *Packet) lanesOf(n int, loads []int64) {
	if p.frames == nil {
		p.frames = make([]frame, 1, MaxDepth+2)
	}
	p.loads = loads
	f := &p.frames[0]
	f.n = n
	for l := 0; l < n; l++ {
		f.lane[l] = uint8(l)
		p.extra[l] = 0
		p.mac[l], p.pc[l], p.pp[l] = 0, 0, 0
	}
	p.defers = p.defers[:0]
}

// Defer sweeps the subtree at root for the first n lanes of p as one
// packet and leaves the remote branches they opened unresolved: each
// lane's Sum, Extra and Stats cover the main tree alone, and Deferred lists
// what the lane's owner must still add, in order. Node Load charges are
// added to loads. Function shipping's requester side.
func (s *Sweep) Defer(p *Packet, n int, root int32, loads []int64) {
	p.lanesOf(n, loads)
	// −0 is the additive identity, so the root's own contribution lands
	// unchanged: the traversal result is never folded into anything.
	s.sweep(p, root, s.Skip[root], math.Copysign(0, -1))
}

// Below sweeps what lies under node base for the first n lanes of p: the
// service of a branch whose cell the lanes' requesters already rejected.
// Function shipping's owner side.
func (s *Sweep) Below(p *Packet, n int, base int32, loads []int64) {
	p.lanesOf(n, loads)
	s.below(p, base)
}

// below sweeps the lanes of w.frames[0] through base's children — or its
// particles, when base is a leaf — charging base one visit per lane, and
// leaves each lane's sum, accumulated from +0, in that frame.
func (s *Sweep) below(w *Packet, base int32) {
	first := base
	if s.Kind[base] != KindLeaf {
		w.loads[base] += int64(w.frames[0].n)
		first++
	}
	s.sweep(w, first, s.Skip[base], 0)
}

// sweep walks nodes [first, end) for the lanes of w.frames[0], leaving
// each lane's sum — accumulated from init — in that frame.
func (s *Sweep) sweep(w *Packet, first, end int32, init float64) {
	d := 0
	f := &w.frames[0]
	f.open(end, init)
	for i := first; ; {
		for i == f.end {
			if d == 0 {
				return
			}
			d--
			up := &w.frames[d]
			for _, l := range f.lane[:f.n] {
				up.x[l] += f.x[l]
				up.y[l] += f.y[l]
				up.z[l] += f.z[l]
			}
			f = up
		}
		kind := s.Kind[i]
		if kind == KindLeaf {
			lo, hi := s.Lo[i], s.Hi[i]
			w.loads[i] += int64(f.n) * int64(hi-lo)
			if s.potential {
				s.leafPot(w, f, lo, hi)
			} else {
				s.leaf(w, f, lo, hi)
			}
			i = s.Skip[i]
			continue
		}
		if d+2 > len(w.frames) {
			w.frames = append(w.frames, frame{})
			f = &w.frames[d]
		}
		sub := &w.frames[d+1]
		sub.n = 0
		if kind == KindBranchLeaf {
			sub.n = copy(sub.lane[:], f.lane[:f.n])
		} else if summary := kind == KindTop || kind == KindBranch; s.potential {
			s.macPot(w, f, sub, i, summary)
		} else {
			s.mac(w, f, sub, i, summary)
		}
		switch {
		case sub.n == 0:
			i = s.Skip[i]
		case kind == KindInternal || kind == KindTop:
			d++
			f = sub
			f.open(s.Skip[i], 0)
			i++
		case kind == KindClosed:
			panic("tree: essential-set criterion violated (closed node rejected by MAC)")
		default:
			// A deferred branch contributes an explicit zero here (not a
			// no-op under signed zeros); its sections fold in later.
			df := deferral{node: i}
			for _, l := range sub.lane[:sub.n] {
				f.x[l] += 0
				f.y[l] += 0
				f.z[l] += 0
				df.lanes |= 1 << l
			}
			w.defers = append(w.defers, df)
			i = s.Skip[i]
		}
	}
}

// mac runs node i's acceptance test for the lanes of f: accepted lanes add
// the cluster term — sharing the MAC's difference vector, whose squares
// are sign-invariant — and are charged; rejected lanes are listed in sub.
func (s *Sweep) mac(w *Packet, f, sub *frame, i int32, summary bool) {
	cx, cy, cz, side := s.ComX[i], s.ComY[i], s.ComZ[i], s.Side[i]
	s2, gm := macS2(side), phys.G*s.Mass[i]
	ex := 0.0
	if summary {
		ex = s.exAdd
	}
	for _, l := range f.lane[:f.n] {
		dx, dy, dz := cx-w.px[l], cy-w.py[l], cz-w.pz[l]
		n2 := dx*dx + dy*dy + dz*dz
		w.mac[l]++
		if !macAccepts(s2, side, n2, s.a2, s.alpha) {
			sub.lane[sub.n] = l
			sub.n++
			continue
		}
		inv := 1 / math.Sqrt(n2+s.e2) // n2 > 0, so never a zero divide
		g := gm * inv * inv * inv
		f.x[l] += g * dx
		f.y[l] += g * dy
		f.z[l] += g * dz
		w.extra[l] += ex
		w.pc[l]++
	}
	if !summary {
		w.loads[i] += int64(f.n - sub.n)
	}
}

// macPot is mac in potential mode: an accepted lane adds the node's
// expansion evaluated at its position.
func (s *Sweep) macPot(w *Packet, f, sub *frame, i int32, summary bool) {
	cx, cy, cz, side := s.ComX[i], s.ComY[i], s.ComZ[i], s.Side[i]
	s2, e := macS2(side), s.Exp[i]
	if e != nil && len(w.irr) < len(e.C) {
		w.irr = make([]complex128, len(e.C))
	}
	ex := 0.0
	if summary {
		ex = s.exAdd
	}
	for _, l := range f.lane[:f.n] {
		dx, dy, dz := cx-w.px[l], cy-w.py[l], cz-w.pz[l]
		n2 := dx*dx + dy*dy + dz*dz
		w.mac[l]++
		if !macAccepts(s2, side, n2, s.a2, s.alpha) {
			sub.lane[sub.n] = l
			sub.n++
			continue
		}
		if e == nil {
			panic("tree: potential sweep accepted a node that has no expansion: Tree.BuildExpansions (a LET section: BuildSection's withExp) must run before the sweep")
		}
		f.x[l] += e.EvalPotentialScratch(vec.V3{X: w.px[l], Y: w.py[l], Z: w.pz[l]}, w.irr)
		w.extra[l] += ex
		w.pc[l]++
	}
	if !summary {
		w.loads[i] += int64(f.n - sub.n)
	}
}

// leaf adds, for every lane of f, the direct sum over particle columns
// [lo, hi) — folded from a zero accumulator in column order, phys.Accel
// term by term — to the lane's partial sum.
func (s *Sweep) leaf(w *Packet, f *frame, lo, hi int32) {
	ids, px, py, pz, pm := s.ID[lo:hi], s.PX[lo:hi], s.PY[lo:hi], s.PZ[lo:hi], s.PM[lo:hi]
	e2 := s.e2
	act := f.lane[:f.n]
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
func (s *Sweep) leafPot(w *Packet, f *frame, lo, hi int32) {
	ids, px, py, pz, pm := s.ID[lo:hi], s.PX[lo:hi], s.PY[lo:hi], s.PZ[lo:hi], s.PM[lo:hi]
	act := f.lane[:f.n]
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
