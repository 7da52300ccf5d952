package tree

import (
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Builder constructs keyed octrees incrementally across time-steps by
// exploiting temporal coherence: particles move little between steps, so
// most of the (key, ID)-sorted order — and most of the tree built over it
// — survives from one step to the next. Step retains the sorted KeyIdx
// permutation, recomputes Morton keys in place, re-sorts with an adaptive
// nearly-sorted pass, then walks the retained tree against the new key
// array: cells whose shape survives (leaves that still fit a leaf,
// internal nodes that stay internal) are refreshed in place, only cells
// whose structure changed are rebuilt, each range into its own exactly
// sized node slice, and Count/Mass/COM are re-accumulated along the spine
// between them.
//
// The result is pinned to the from-scratch build: every tree returned by
// Step is bit-identical — node for node, field for field — to BuildKeyed
// over the same particles, because refreshed nodes replay exactly the
// moment arithmetic of the builder and rebuilt ranges run the very same
// buildKeyedRange. This is the two-clock rule: only the host clock
// changes.
//
// The Builder keeps one sorted particle/key snapshot, and the returned
// *Tree's leaves alias it. The next Step overwrites it in place — the
// reconciliation reads only the retained nodes' shape, never their
// particles — so callers must finish traversing a step's tree before
// starting the next. Particles returns the snapshot itself, so a caller
// that needs its particles in (key, ID) order takes them from there
// instead of sorting a copy of its own. A Builder is not safe for
// concurrent use.
type Builder struct {
	box     vec.Box // cubed root cell; keys quantize against it
	leafCap int

	t *Tree

	// pairs is the retained (key, ID, input-index) permutation from the
	// previous Step; valid whenever t is.
	pairs   []keys.KeyIdx
	scratch []keys.KeyIdx

	// ps/ks are the one sorted snapshot: the current tree's particles and
	// keys. Warm steps gather the next snapshot into them in place.
	ps []dist.Particle
	ks []uint64

	// Garbage bookkeeping: a rebuilt range takes its own node slice while
	// the nodes it replaces stay pinned in the slices they were built in.
	// Once the accumulated garbage rivals the live tree, a cold rebuild
	// lets the old slices go to the GC.
	coldNodes    int
	rebuiltNodes int

	last BuildReport
}

// BuildReport describes what the most recent Step did — host-side
// diagnostics only; nothing here feeds back into the simulation.
type BuildReport struct {
	Cold      bool // full from-scratch build (first step, shape change, garbage recycle, or aliased input)
	N         int
	Displaced int // elements the adaptive re-sort had to move
	Refreshed int // leaves kept and refreshed in place
	Rebuilt   int // nodes newly built for structurally-dirtied ranges
	Spine     int // retained internal nodes re-accumulated in place

	KeyDur  time.Duration // Morton key recomputation
	SortDur time.Duration // adaptive (or full) re-sort
	TreeDur time.Duration // diff + refresh + rebuild + spine patching
}

// NewBuilder returns an incremental builder for trees rooted at the cube
// around domain with the given leaf capacity (s parameter; zero means
// DefaultLeafCap). The domain must match across steps — it anchors the
// Morton quantization, exactly as in BuildKeyed.
func NewBuilder(domain vec.Box, leafCap int) *Builder {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	return &Builder{box: domain.Cube(), leafCap: leafCap}
}

// Tree returns the tree produced by the most recent Step (nil before the
// first).
func (b *Builder) Tree() *Tree { return b.t }

// Particles returns the most recent Step's particles in (key, ID) order:
// the snapshot the tree's leaves alias, valid until the next Step.
func (b *Builder) Particles() []dist.Particle { return b.ps }

// Last returns the report for the most recent Step.
func (b *Builder) Last() BuildReport { return b.last }

// Reset drops all retained state; the next Step is a cold build.
func (b *Builder) Reset() {
	b.t = nil
	b.ps, b.ks = nil, nil
}

// Step builds the octree for the particles, incrementally when the
// retained state applies. The warm path requires the same particles (by
// ID) in the same input order as the previous Step — the invariant of a
// stepped simulation whose authoritative body slice is indexed by ID.
// Any mismatch (length change, reordering, first call) falls back to a
// cold build identical to BuildKeyed, and so, from a copy, does input
// that shares memory with the snapshot the gather overwrites.
func (b *Builder) Step(particles []dist.Particle) *Tree {
	if overlaps(particles, b.ps) {
		return b.cold(append([]dist.Particle(nil), particles...))
	}
	n := len(particles)
	if b.t == nil || n != len(b.ps) || n == 0 || b.arenaStale() {
		return b.cold(particles)
	}
	t0 := time.Now()
	// Recompute the Morton keys in place over the retained sorted
	// permutation. pairs[i].Idx addresses the input slice; the ID guard
	// detects any reordering of it.
	pairs := b.pairs
	for i := range pairs {
		p := &particles[pairs[i].Idx]
		if int32(p.ID) != pairs[i].ID {
			return b.cold(particles)
		}
		pairs[i].Key = keys.FullKey3(p.Pos, b.box)
	}
	keyDur := time.Since(t0)

	t0 = time.Now()
	displaced := keys.SortKeyIdxAdaptive(pairs, b.scratch)
	sortDur := time.Since(t0)

	t0 = time.Now()
	for i := range pairs {
		b.ps[i] = particles[pairs[i].Idx]
		b.ks[i] = pairs[i].Key
	}
	b.sync()
	b.last = BuildReport{
		N:         n,
		Displaced: displaced,
		Refreshed: b.last.Refreshed,
		Rebuilt:   b.last.Rebuilt,
		Spine:     b.last.Spine,
		KeyDur:    keyDur,
		SortDur:   sortDur,
		TreeDur:   time.Since(t0),
	}
	return b.t
}

// arenaStale reports whether rebuild garbage has outgrown the live tree,
// the signal to recycle everything with a cold build.
func (b *Builder) arenaStale() bool {
	return b.rebuiltNodes > b.coldNodes+64
}

// overlaps reports whether the input shares memory with the snapshot.
func overlaps(in, snap []dist.Particle) bool {
	size := unsafe.Sizeof(dist.Particle{})
	a, s := uintptr(unsafe.Pointer(unsafe.SliceData(in))), uintptr(unsafe.Pointer(unsafe.SliceData(snap)))
	return len(in) > 0 && cap(snap) > 0 && a < s+uintptr(cap(snap))*size && s < a+uintptr(len(in))*size
}

// resize sets the snapshot's length to n, reusing its storage when it is
// large enough.
func (b *Builder) resize(n int) {
	if cap(b.ps) < n {
		b.ps = make([]dist.Particle, n)
	}
	if cap(b.ks) < n {
		b.ks = make([]uint64, n)
	}
	b.ps, b.ks = b.ps[:n], b.ks[:n]
}

// cold runs the from-scratch path — all that Build and BuildKeyed's
// one-shot Builder ever runs — while priming the retained state for
// subsequent warm steps.
func (b *Builder) cold(particles []dist.Particle) *Tree {
	n := len(particles)
	t0 := time.Now()
	if cap(b.pairs) < n {
		b.pairs = make([]keys.KeyIdx, n)
	}
	pairs := b.pairs[:n]
	b.pairs = pairs
	for i := range particles {
		pairs[i] = keys.KeyIdx{
			Key: keys.FullKey3(particles[i].Pos, b.box),
			ID:  int32(particles[i].ID),
			Idx: int32(i),
		}
	}
	keyDur := time.Since(t0)
	t0 = time.Now()
	if cap(b.scratch) < n {
		b.scratch = make([]keys.KeyIdx, n)
	}
	keys.SortKeyIdx(pairs, b.scratch)
	sortDur := time.Since(t0)
	t0 = time.Now()
	b.resize(n)
	for i := range pairs {
		b.ps[i] = particles[pairs[i].Idx]
		b.ks[i] = pairs[i].Key
	}
	t := b.coldBuild()
	b.last = BuildReport{Cold: true, N: n, KeyDur: keyDur, SortDur: sortDur, TreeDur: time.Since(t0)}
	return t
}

// coldBuild builds the whole tree over the snapshot into one node slice,
// letting the previous tree go first: its nodes are garbage before the new
// ones are allocated, not after.
func (b *Builder) coldBuild() *Tree {
	b.t = nil
	nodes := keyedNodes(b.ps, b.ks, b.box, keys.CellKey{}, b.leafCap)
	b.t = &Tree{Root: &nodes[0], LeafCap: b.leafCap, Degree: -1}
	b.coldNodes = len(nodes)
	b.rebuiltNodes = 0
	return b.t
}

// sync reconciles the retained tree with the snapshot the step has just
// written. On return every leaf of b.t aliases it.
func (b *Builder) sync() {
	b.last.Refreshed, b.last.Rebuilt, b.last.Spine = 0, 0, 0
	b.t.Root = b.syncNode(b.t.Root, 0, len(b.ps), b.box, keys.CellKey{})
	b.t.Degree = -1 // expansions, if any were built, were invalidated
}

// syncNode reconciles the cell (box, key), whose new content is
// b.ps[lo:hi), against its previous subtree old. The diff is
// structural, not positional: which particles land in the cell is fully
// determined by the parent's octant partition of the new key array, so
// the only question per cell is whether the retained node's shape (leaf
// vs internal) still matches what the from-scratch build would produce
// there. Low-order key bits change whenever a particle moves at all —
// comparing raw key sequences would dirty every leaf every step — but
// the tree's shape only depends on octant digits down to each cell's
// level, which small displacements rarely flip.
//
// Three outcomes, in order of preference:
//
//   - refresh: the new range still fits a leaf and the old node is one.
//     The node keeps its identity (Box, Key, node slot); fillLeaf —
//     the literal cold-path function — re-aliases the particle slice
//     and replays the moment arithmetic, so the result is bit-identical
//     to a fresh build no matter how the particles inside moved.
//   - descend: both old and new are internal cells, so the children are
//     reconciled octant by octant and this spine node's Count/Mass/COM
//     are re-accumulated exactly as buildKeyedRange would.
//   - rebuild: the shape changed (cell newly occupied, leaf split past
//     leafCap, or subtree collapsed to leaf size). buildKeyedRange — the
//     literal cold-path function — runs over the range into a node slice
//     of its own, so conservative dirtying can never change the result,
//     only the host clock.
func (b *Builder) syncNode(old *Node, lo, hi int, box vec.Box, key keys.CellKey) *Node {
	n := hi - lo
	level := int(key.Level)
	if n <= b.leafCap || level >= MaxDepth {
		if old != nil && old.IsLeaf() {
			b.refreshLeaf(old, b.ps[lo:hi])
			return old
		}
		return b.rebuild(lo, hi, box, key)
	}
	if old == nil || old.IsLeaf() {
		return b.rebuild(lo, hi, box, key)
	}
	// Both internal: reconcile children octant by octant.
	bounds := octantBounds(b.ks[lo:hi], level)
	old.Count = n
	old.Mass = 0
	old.COM = vec.V3{}
	old.Load = 0
	old.Exp = nil
	b.last.Spine++
	for o := 0; o < 8; o++ {
		clo, chi := lo+bounds[o], lo+bounds[o+1]
		if clo == chi {
			old.Children[o] = nil
			continue
		}
		child := b.syncNode(old.Children[o], clo, chi, box.Octant(o), key.Child(o))
		old.Children[o] = child
		old.Mass += child.Mass
		old.COM = old.COM.Add(child.COM.Scale(child.Mass))
	}
	if old.Mass > 0 {
		old.COM = old.COM.Scale(1 / old.Mass)
	}
	return old
}

// rebuild replaces a dirtied range with a from-scratch subtree in a node
// slice of its own and accounts the garbage this strands.
func (b *Builder) rebuild(lo, hi int, box vec.Box, key keys.CellKey) *Node {
	nodes := keyedNodes(b.ps[lo:hi], b.ks[lo:hi], box, key, b.leafCap)
	b.rebuiltNodes += len(nodes)
	b.last.Rebuilt += len(nodes)
	return &nodes[0]
}

// refreshLeaf rewires a retained leaf onto the new particle snapshot,
// replaying exactly the arithmetic (and accumulation order) of the
// from-scratch build, so the refreshed leaf is bit-identical to what
// buildKeyedRange would produce.
func (b *Builder) refreshLeaf(n *Node, ps []dist.Particle) {
	b.last.Refreshed++
	n.Count = len(ps)
	n.Mass = 0
	n.COM = vec.V3{}
	n.Load = 0
	n.Exp = nil
	n.Particles = nil
	fillLeaf(n, ps)
}
