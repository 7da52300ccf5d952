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
// counters are bit-identical to function shipping. The essential-set
// criterion below is conservative: a node is only summarized (closed)
// when the MAC provably accepts it from every point of the peer's
// bounding box; the kernels panic if that guarantee is ever violated.
package let

import (
	"math"

	"repro/internal/dist"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Bounds is the axis-aligned bounding box of one rank's particles — the
// domain against which owners evaluate the essential-set criterion. The
// min/max corners are exact copies of particle coordinates (no
// arithmetic), so a particle on a face has axis distance exactly zero.
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
// centre of mass and box side from every point of the peer bounds: the
// node can be shipped as a summary with no children.
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
	// fail for some point of the peer bounds, so the peer must be able to
	// descend it. Its summary is still shipped — individual particles may
	// accept it.
	NodeOpen uint8 = iota
	// NodeClosed is an internal node shipped as a bare summary: the MAC
	// provably accepts it from everywhere in the peer bounds.
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

// BuildSection walks the subtree rooted at root and serializes its
// essential set for a peer with the given bounds. alwaysShip forces
// shipping even when the root is provably closed — set for leaf-cell
// branches (count ≤ leafCap), which peers defer unconditionally without
// a MAC test. withExp ships per-node expansion floats (potential mode).
//
// Returns the section, the owner-side nodes aligned with its ordinals
// (for Load write-back), and the number of nodes examined (for flop
// accounting). A nil section means nothing is essential: the peer's MAC
// provably accepts the root summary everywhere.
func BuildSection(root *tree.Node, bb Bounds, alpha float64, withExp bool, alwaysShip bool) (*Section, []*tree.Node, int) {
	if !bb.Has || root == nil || root.Count == 0 {
		return nil, nil, 0
	}
	visited := 1
	rootSide := root.Box.LongestSide()
	if !alwaysShip && !root.IsLeaf() && bb.Closed(root.COM, rootSide, alpha) {
		return nil, nil, visited
	}
	if root.IsLeaf() && !alwaysShip && bb.Closed(root.COM, rootSide, alpha) {
		// Oversized max-depth leaf the peer will MAC-test and provably
		// accept: nothing to ship.
		return nil, nil, visited
	}
	sec := &Section{}
	var nodes []*tree.Node

	appendLeaf := func(n *tree.Node) {
		lo := int32(len(sec.PID))
		for i := range n.Particles {
			p := &n.Particles[i]
			sec.PID = append(sec.PID, int32(p.ID))
			sec.PX = append(sec.PX, p.Pos.X)
			sec.PY = append(sec.PY, p.Pos.Y)
			sec.PZ = append(sec.PZ, p.Pos.Z)
			sec.PM = append(sec.PM, p.Mass)
		}
		sec.Kind = append(sec.Kind, NodeLeaf)
		sec.Skip = append(sec.Skip, int32(len(sec.Kind)))
		sec.ComX = append(sec.ComX, 0)
		sec.ComY = append(sec.ComY, 0)
		sec.ComZ = append(sec.ComZ, 0)
		sec.Mass = append(sec.Mass, 0)
		sec.Side = append(sec.Side, 0)
		sec.LeafLo = append(sec.LeafLo, lo)
		sec.LeafHi = append(sec.LeafHi, int32(len(sec.PID)))
		nodes = append(nodes, n)
	}
	appendInternal := func(n *tree.Node, kind uint8, side float64) int {
		sec.Kind = append(sec.Kind, kind)
		sec.Skip = append(sec.Skip, int32(len(sec.Kind))) // patched for NodeOpen
		sec.ComX = append(sec.ComX, n.COM.X)
		sec.ComY = append(sec.ComY, n.COM.Y)
		sec.ComZ = append(sec.ComZ, n.COM.Z)
		sec.Mass = append(sec.Mass, n.Mass)
		sec.Side = append(sec.Side, side)
		sec.LeafLo = append(sec.LeafLo, -1)
		sec.LeafHi = append(sec.LeafHi, -1)
		if withExp && n.Exp != nil {
			fs := n.Exp.Floats()
			if sec.ExpStride == 0 {
				sec.ExpStride = int32(len(fs))
			}
			sec.Exp = append(sec.Exp, fs...)
		}
		nodes = append(nodes, n)
		return len(sec.Kind) - 1
	}

	var add func(n *tree.Node)
	add = func(n *tree.Node) {
		visited++
		if n.Count == 0 || n.IsLeaf() {
			// Zero-count nodes serialize as empty leaves: the peer folds an
			// exact zero vector, matching the pointer traversal's early
			// return, and charges no load.
			appendLeaf(n)
			return
		}
		side := n.Box.LongestSide()
		if bb.Closed(n.COM, side, alpha) {
			appendInternal(n, NodeClosed, side)
			return
		}
		idx := appendInternal(n, NodeOpen, side)
		for _, c := range n.Children {
			if c != nil {
				add(c)
			}
		}
		sec.Skip[idx] = int32(len(sec.Kind))
	}

	if root.IsLeaf() {
		appendLeaf(root)
		return sec, nodes, visited
	}
	idx := appendInternal(root, NodeOpen, rootSide)
	for _, c := range root.Children {
		if c != nil {
			add(c)
		}
	}
	sec.Skip[idx] = int32(len(sec.Kind))
	return sec, nodes, visited
}
