// Package let implements the locally-essential-tree (LET) exchange of
// Dubinski's parallel tree code, adapted to the paper's three
// formulations: instead of shipping particles to the data (function
// shipping) or fetching cells on demand (data shipping), each rank
// computes, per peer, the exact subset of its local subtrees the peer's
// particles can possibly open — the *essential set* — and ships it in
// one bulk message per step. The receiving rank grafts the returned node
// columns beside a flat linearization of its replicated tree and then
// traverses purely locally, host-parallel within the rank.
//
// Correctness contract (the two-clock rule): the traversals — tree.Sweep
// under Flat.ForceAll, the potential kernels in flat.go — replay the
// function-shipping engine's floating-point reduction order exactly — same MAC arithmetic, same accumulator-stack
// open/close structure, same signed-zero adds at deferred branches — so
// accelerations, potentials, interaction Stats, and per-node Load
// counters are bit-identical to function shipping.
//
// The essential-set criterion is conservative: a node is only summarized
// (closed) when the MAC provably accepts it from every particle of the
// peer. An owner knows two things about where those particles are: their
// bounding box, which the ranks all-gather, and the branch cells they are
// keyed into, which every rank holds in the replicated top tree (Cells).
// A node is closed when the MAC accepts it from everywhere in the bounding
// box, or else from everywhere in each of the peer's branch cells, each
// clipped to that box. Under SPDA and DPDA a peer's domain is a run of
// Morton-ordered cells and under SPSA a scatter of clusters; the bounding
// box spans every gap between them, the cells do not. The kernels panic if
// the guarantee is ever violated.
package let

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Bounds is the axis-aligned bounding box of one rank's particles — the
// part of its Domain that travels. The min/max corners are exact copies
// of particle coordinates (no arithmetic), so a particle on a face has
// axis distance exactly zero.
type Bounds struct {
	Has      bool // false when the rank currently owns no particles
	Min, Max vec.V3
}

// BoundsWords is the modelled wire size of one Bounds record.
const BoundsWords = 7

// BoundsOf returns the bounding box of the particles' positions.
func BoundsOf(ps []dist.Particle) Bounds {
	if len(ps) == 0 {
		return Bounds{}
	}
	b := Bounds{Has: true, Min: ps[0].Pos, Max: ps[0].Pos}
	for i := 1; i < len(ps); i++ {
		b.Min = b.Min.Min(ps[i].Pos)
		b.Max = b.Max.Max(ps[i].Pos)
	}
	return b
}

// MinDist returns the Euclidean distance from p to the nearest point of
// the box (zero when p is inside).
func (b Bounds) MinDist(p vec.V3) float64 {
	dx := axisDist(b.Min.X, b.Max.X, p.X)
	dy := axisDist(b.Min.Y, b.Max.Y, p.Y)
	dz := axisDist(b.Min.Z, b.Max.Z, p.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

func axisDist(lo, hi, x float64) float64 {
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}

// OpenMargin is the relative safety margin of the closed test. The MAC a
// peer replays computes side/dist(q,com) with its own roundings; the
// owner's minDist is a different expression with different roundings.
// True distances satisfy dist(q,com) ≥ minDist for every q in the box,
// but both sides are computed in floating point, so closing demands a
// margin that dwarfs the few-ulp disagreement (~1e-16 relative) between
// the two computations. Opening a node that would have been accepted is
// merely conservative; closing one that gets rejected is a correctness
// violation, which the traversal kernels turn into a panic.
const OpenMargin = 1e-12

// Closed reports whether the MAC provably accepts a node with the given
// centre of mass and box side from every point of the box.
func (b Bounds) Closed(com vec.V3, side float64, alpha float64) bool {
	if !b.Has {
		return true
	}
	d := b.MinDist(com)
	return d*(1-OpenMargin) > side/alpha
}

// Node kinds of a serialized essential set.
const (
	// NodeOpen is an internal node shipped with its children: the MAC can
	// fail for some particle of the peer, so the peer must be able to
	// descend it. Its summary is still shipped — individual particles may
	// accept it.
	NodeOpen uint8 = iota
	// NodeClosed is an internal node shipped as a bare summary: the MAC
	// provably accepts it from every particle of the peer.
	NodeClosed
	// NodeLeaf carries a particle range (possibly empty, standing in for
	// a zero-count node that contributes an exact zero vector).
	NodeLeaf
)

// Section is the serialized essential set of one branch subtree for one
// peer: node columns in DFS (Morton) order. Node index within the
// section is the ordinal the peer uses to return per-node Load deltas.
type Section struct {
	// BranchKey is the packed CellKey of the branch root this section
	// describes.
	BranchKey uint64

	Kind             []uint8
	Skip             []int32 // index one past the node's subtree, section-relative
	ComX, ComY, ComZ []float64
	Mass             []float64
	Side             []float64 // precomputed Box.LongestSide()
	LeafLo, LeafHi   []int32   // particle range for NodeLeaf; -1 otherwise

	// Exp holds ExpStride floats per non-leaf node, in node order
	// (potential mode only).
	Exp       []float64
	ExpStride int32

	// Leaf particle columns, indexed by LeafLo/LeafHi.
	PID            []int32
	PX, PY, PZ, PM []float64
}

// NumNodes returns the number of serialized nodes.
func (s *Section) NumNodes() int { return len(s.Kind) }

// WireWords returns the modelled wire size in 8-byte words: two words of
// header (key + node count); per internal node six words of summary
// (com, mass, side, kind/skip) plus the expansion floats; per leaf two
// words of framing plus four words per particle (id, mass packed with
// the three coordinates — the same per-particle model the data-shipping
// engine uses).
func (s *Section) WireWords() int {
	w := 2
	for i, k := range s.Kind {
		if k == NodeLeaf {
			w += 2 + 4*int(s.LeafHi[i]-s.LeafLo[i])
		} else {
			w += 6 + int(s.ExpStride)
		}
	}
	return w
}

// Scratch is one rank's working columns for BuildSection, reused from one
// call to the next: a section is built here and copied out at its exact
// size. Not safe for concurrent use.
type Scratch struct {
	sec   Section
	nodes []int32
}

// BuildSection walks the subtree under node root of t and serializes its
// essential set for the peer whose particle domain is dom (see Domain for
// why the peer's sections share it). alwaysShip forces shipping even when
// the root is provably closed — set for leaf-cell branches (count ≤
// leafCap), which peers defer unconditionally without a MAC test. withExp
// ships per-node expansion floats (potential mode). sc holds the walk's
// columns.
//
// Returns the section, the owner-side node indices aligned with its
// ordinals (for Load write-back), and the number of box tests run (for flop accounting:
// one per node examined, as a bounding-box walk runs, plus the cell tests
// beyond each node's first). A nil section means nothing is essential: the
// peer's MAC provably accepts the root summary everywhere.
func BuildSection(t *tree.Tree, root int32, dom *Domain, alpha float64, withExp, alwaysShip bool, sc *Scratch) (*Section, []int32, int) {
	if !dom.Has || t.Count(root) == 0 {
		return nil, nil, 0
	}
	if !dom.Cells.owns(0, dom.Rank) {
		panic(fmt.Sprintf("let: peer %d has particles but no branch cell", dom.Rank))
	}
	w := sectionWalk{essential: essential{dom: dom, alpha: alpha}, t: t, sc: sc, withExp: withExp, visited: 1}
	// An oversized max-depth leaf the peer will MAC-test and provably accept
	// ships nothing, as an internal root does.
	if !alwaysShip && w.closed(t.COM(root), t.Side[root]) {
		return nil, nil, w.visited + w.extra
	}
	s := &sc.sec
	*s = Section{
		Kind: s.Kind[:0], Skip: s.Skip[:0], ComX: s.ComX[:0], ComY: s.ComY[:0], ComZ: s.ComZ[:0],
		Mass: s.Mass[:0], Side: s.Side[:0], LeafLo: s.LeafLo[:0], LeafHi: s.LeafHi[:0], Exp: s.Exp[:0],
		PID: s.PID[:0], PX: s.PX[:0], PY: s.PY[:0], PZ: s.PZ[:0], PM: s.PM[:0],
	}
	sc.nodes = sc.nodes[:0]
	if t.IsLeaf(root) {
		w.leaf(root)
	} else {
		idx := w.internal(root, NodeOpen)
		w.children(root)
		s.Skip[idx] = int32(len(s.Kind))
	}
	out := &Section{
		Kind: exact(s.Kind), Skip: exact(s.Skip), ComX: exact(s.ComX), ComY: exact(s.ComY), ComZ: exact(s.ComZ),
		Mass: exact(s.Mass), Side: exact(s.Side), LeafLo: exact(s.LeafLo), LeafHi: exact(s.LeafHi),
		Exp: exact(s.Exp), ExpStride: s.ExpStride,
		PID: exact(s.PID), PX: exact(s.PX), PY: exact(s.PY), PZ: exact(s.PZ), PM: exact(s.PM),
	}
	return out, exact(sc.nodes), w.visited + w.extra
}

// exact copies s into a slice of exactly its length (nil when empty).
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// sectionWalk serializes one essential set into its Scratch.
type sectionWalk struct {
	essential
	t       *tree.Tree
	sc      *Scratch
	withExp bool
	visited int
}

func (w *sectionWalk) children(n int32) {
	for c := n + 1; c < w.t.Skip[n]; c = w.t.Skip[c] {
		w.add(c)
	}
}

func (w *sectionWalk) add(n int32) {
	w.visited++
	if w.t.IsLeaf(n) {
		w.leaf(n)
		return
	}
	if w.closed(w.t.COM(n), w.t.Side[n]) {
		w.internal(n, NodeClosed)
		return
	}
	idx := w.internal(n, NodeOpen)
	w.children(n)
	w.sc.sec.Skip[idx] = int32(len(w.sc.sec.Kind))
}

func (w *sectionWalk) leaf(n int32) {
	s, t := &w.sc.sec, w.t
	lo := int32(len(s.PID))
	s.PID = append(s.PID, t.ID[t.Lo[n]:t.Hi[n]]...)
	s.PX = append(s.PX, t.PX[t.Lo[n]:t.Hi[n]]...)
	s.PY = append(s.PY, t.PY[t.Lo[n]:t.Hi[n]]...)
	s.PZ = append(s.PZ, t.PZ[t.Lo[n]:t.Hi[n]]...)
	s.PM = append(s.PM, t.PM[t.Lo[n]:t.Hi[n]]...)
	s.Kind = append(s.Kind, NodeLeaf)
	s.Skip = append(s.Skip, int32(len(s.Kind)))
	s.ComX = append(s.ComX, 0)
	s.ComY = append(s.ComY, 0)
	s.ComZ = append(s.ComZ, 0)
	s.Mass = append(s.Mass, 0)
	s.Side = append(s.Side, 0)
	s.LeafLo = append(s.LeafLo, lo)
	s.LeafHi = append(s.LeafHi, int32(len(s.PID)))
	w.sc.nodes = append(w.sc.nodes, n)
}

func (w *sectionWalk) internal(n int32, kind uint8) int {
	s, t := &w.sc.sec, w.t
	s.Kind = append(s.Kind, kind)
	s.Skip = append(s.Skip, int32(len(s.Kind))) // patched for NodeOpen
	s.ComX = append(s.ComX, t.ComX[n])
	s.ComY = append(s.ComY, t.ComY[n])
	s.ComZ = append(s.ComZ, t.ComZ[n])
	s.Mass = append(s.Mass, t.Mass[n])
	s.Side = append(s.Side, t.Side[n])
	s.LeafLo = append(s.LeafLo, -1)
	s.LeafHi = append(s.LeafHi, -1)
	if w.withExp && t.Exp[n] != nil {
		fs := t.Exp[n].Floats()
		if s.ExpStride == 0 {
			s.ExpStride = int32(len(fs))
		}
		s.Exp = append(s.Exp, fs...)
	}
	w.sc.nodes = append(w.sc.nodes, n)
	return len(s.Kind) - 1
}
