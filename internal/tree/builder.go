package tree

import (
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Builder constructs keyed octrees across time-steps by exploiting
// temporal coherence: particles move little between steps, so most of the
// (key, ID)-sorted order — and usually the shape of the tree built over it
// — survives from one step to the next. Step retains the sorted KeyIdx
// permutation, recomputes Morton keys in place, re-sorts with an adaptive
// nearly-sorted pass, then walks the retained tree against the new key
// array. Every cell that keeps its shape (a leaf still fits a leaf, an
// internal node stays internal) has its particle range and moments
// refreshed in place; only cells whose shape changed are rebuilt cold,
// spliced into the retained columns where the from-scratch build puts
// them.
//
// The result is pinned to the from-scratch build: every tree returned by
// Step is bit-identical — column for column — to BuildKeyed over the same
// particles, because refreshed nodes replay exactly the moment arithmetic
// of the build and rebuilt cells run the build itself. This is the two-clock
// rule: only the host clock changes.
//
// Step returns the same *Tree every time: the Builder owns its columns and
// its one sorted particle/key snapshot and overwrites them in place,
// reusing their capacity, so callers must finish with a step's tree before
// starting the next. Particles returns the snapshot itself, so a caller
// that needs its particles in (key, ID) order takes them from there
// instead of sorting a copy of its own. A Builder is not safe for
// concurrent use.
type Builder struct {
	box     vec.Box // cubed root cell; keys quantize against it
	leafCap int

	t *Tree // the retained columns; nil before the first Step and after Reset

	// pairs is the retained (key, ID, input-index) permutation from the
	// previous Step; valid whenever t is.
	pairs   []keys.KeyIdx
	scratch []keys.KeyIdx

	// A warm step's diff: its patches in DFS order, the spine nodes above
	// them in post-order, and the node count the patches so far add.
	patches []patch
	spine   []spineNode
	delta   int32

	last BuildReport
}

// A patch replaces retained node slots [at, end) — none for a newly
// occupied octant — by the count nodes of the cold build of cell key over
// the snapshot's particles [lo, hi), which go to slots from to on.
type patch struct {
	at, end, to, count int32
	lo, hi             int32
	key                keys.CellKey
	f                  *fanout
}

// A spineNode is a kept internal node above a patch: its new slot and
// Skip.
type spineNode struct{ at, skip int32 }

// BuildReport describes what the most recent Step did — host-side
// diagnostics only; nothing here feeds back into the simulation.
type BuildReport struct {
	Cold      bool // sorted and built from scratch (first step, membership change, or aliased input)
	N         int
	Displaced int // elements the adaptive re-sort had to move
	Refreshed int // leaves kept and refreshed in place
	Rebuilt   int // nodes rebuilt because their cell changed shape
	Spine     int // retained internal nodes re-accumulated in place

	KeyDur  time.Duration // Morton key recomputation
	SortDur time.Duration // adaptive (or full) re-sort
	TreeDur time.Duration // refresh or rebuild
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
// the snapshot the tree's particle columns transpose, valid until the next
// Step.
func (b *Builder) Particles() []dist.Particle {
	if b.t == nil {
		return nil
	}
	return b.t.ps
}

// Last returns the report for the most recent Step.
func (b *Builder) Last() BuildReport { return b.last }

// Reset drops all retained state; the next Step is a cold build into new
// columns.
func (b *Builder) Reset() { b.t = nil }

// Step builds the octree for the particles, incrementally when the
// retained state applies. The warm path requires the same particles (by
// ID) in the same input order as the previous Step — the invariant of a
// stepped simulation whose authoritative body slice is indexed by ID.
// Any mismatch (length change, reordering, first call) falls back to a
// cold sort identical to BuildKeyed's, and so, from a copy, does input
// that shares memory with the snapshot the gather overwrites.
func (b *Builder) Step(particles []dist.Particle) *Tree {
	if b.t != nil && overlaps(particles, b.t.ps) {
		return b.cold(append([]dist.Particle(nil), particles...))
	}
	n := len(particles)
	if b.t == nil || n != len(b.t.ps) || n == 0 {
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
	b.gather(particles)
	b.last = BuildReport{N: n, Displaced: displaced, KeyDur: keyDur, SortDur: sortDur}
	t := b.t
	old := t.Skip[0]
	t.truncate(int(old), n)
	b.delta = 0
	b.diff(0, 0, int32(n))
	if len(b.patches) > 0 {
		b.splice(old)
	}
	t.Degree = -1 // expansions, if any were built, were invalidated
	b.last.TreeDur = time.Since(t0)
	return t
}

// overlaps reports whether the input shares memory with the snapshot.
func overlaps(in, snap []dist.Particle) bool {
	size := unsafe.Sizeof(dist.Particle{})
	a, s := uintptr(unsafe.Pointer(unsafe.SliceData(in))), uintptr(unsafe.Pointer(unsafe.SliceData(snap)))
	return len(in) > 0 && cap(snap) > 0 && a < s+uintptr(cap(snap))*size && s < a+uintptr(len(in))*size
}

// gather writes the particles into the snapshot and the particle columns
// in the order of pairs.
func (b *Builder) gather(particles []dist.Particle) {
	t := b.t
	for i := range b.pairs {
		t.setParticle(i, &particles[b.pairs[i].Idx], b.pairs[i].Key)
	}
}

// cold runs the from-scratch path — all that Build and BuildKeyed's
// one-shot Builder ever runs — while priming the retained state for
// subsequent warm steps.
func (b *Builder) cold(particles []dist.Particle) *Tree {
	n := len(particles)
	t0 := time.Now()
	b.pairs = keyPairs(b.pairs, particles, b.box)
	keyDur := time.Since(t0)
	t0 = time.Now()
	b.scratch = grow(b.scratch, n)
	keys.SortKeyIdx(b.pairs, b.scratch)
	sortDur := time.Since(t0)
	t0 = time.Now()
	if b.t == nil {
		b.t = newTree(b.box, b.leafCap)
	}
	b.t.growParticles(0) // nothing to keep: growing copies no old snapshot
	b.t.growParticles(n)
	b.gather(particles)
	b.rebuild()
	b.t.Degree = -1
	b.last = BuildReport{Cold: true, N: n, KeyDur: keyDur, SortDur: sortDur, TreeDur: time.Since(t0)}
	return b.t
}

// rebuild writes the whole tree over the snapshot into the retained node
// columns, growing them only when the tree outgrows their capacity.
func (b *Builder) rebuild() {
	t := b.t
	count, f := countKeyedRange(t.ks, 0, b.leafCap)
	t.truncate(0, len(t.ps))
	t.growNodes(count)
	t.buildKeyedRange(0, 0, int32(len(t.ps)), b.box, keys.CellKey{}, f)
}

// diff reconciles retained node i, whose new content is the snapshot's
// particles [lo, hi). The diff is structural, not positional: which
// particles land in a cell is fully determined by its parent's octant
// partition of the new key array, so the only question per cell is
// whether the node the cold build would put there has the retained one's
// shape — a leaf where a leaf was, an internal node where one was. Low-order
// key bits change whenever a particle moves at all, but the shape depends
// only on octant digits down to each cell's level, which small
// displacements rarely flip.
//
// A kept node takes its new range and replays the build's moment
// arithmetic (leafMoments, internalMoments), so it is bit-identical to a
// fresh build however the particles inside moved. A cell whose shape
// changed, an octant newly occupied and an octant emptied each become a
// patch: a retained subtree (empty for a new octant) to be replaced by the
// cold build of the cell (nothing for an emptied one). An internal node
// with patches below it is a spine node: its moments wait for splice.
func (b *Builder) diff(i, lo, hi int32) {
	t := b.t
	level := t.level(i)
	leaf := hi-lo <= int32(b.leafCap) || level >= MaxDepth
	if leaf != t.IsLeaf(i) {
		b.replace(i, t.Skip[i], lo, hi, t.Cell(i))
		return
	}
	t.Lo[i], t.Hi[i], t.Load[i], t.Exp[i] = lo, hi, 0, nil
	if leaf {
		t.leafMoments(i)
		b.last.Refreshed++
		return
	}
	b.last.Spine++
	at, patches := i+b.delta, len(b.patches)
	bounds := octantBounds(t.ks[lo:hi], level)
	c := i + 1
	for o := 0; o < 8; o++ {
		clo, chi := lo+int32(bounds[o]), lo+int32(bounds[o+1])
		kept := c < t.Skip[i] && int(t.Key[c]&7) == o
		switch {
		case kept && clo == chi:
			b.replace(c, t.Skip[c], clo, chi, keys.CellKey{})
			c = t.Skip[c]
		case kept:
			next := t.Skip[c]
			b.diff(c, clo, chi)
			c = next
		case clo < chi:
			b.replace(c, c, clo, chi, t.Cell(i).Child(o))
		}
	}
	if len(b.patches) == patches {
		t.internalMoments(i)
		return
	}
	b.spine = append(b.spine, spineNode{at: at, skip: t.Skip[i] + b.delta})
}

// replace records the patch that puts the cold build of cell key over the
// snapshot's particles [lo, hi) where retained slots [at, end) are.
func (b *Builder) replace(at, end, lo, hi int32, key keys.CellKey) {
	p := patch{at: at, end: end, to: at + b.delta, lo: lo, hi: hi, key: key}
	if lo < hi {
		var count int
		count, p.f = countKeyedRange(b.t.ks[lo:hi], int(key.Level), b.leafCap)
		p.count = int32(count)
	}
	b.patches = append(b.patches, p)
	b.delta += p.count - (end - at)
	b.last.Rebuilt += int(p.count)
}

// splice applies diff's patches to the columns of old nodes: the kept
// runs between patches move to where the new tree puts them, each patch's
// cell is built into its window, and the spine nodes take their new Skip
// and then their moments, children before parents. Runs moving left move
// first, front to back, then runs moving right, back to front, so no run
// overwrites one that has yet to move.
func (b *Builder) splice(old int32) {
	t := b.t
	if b.delta > 0 {
		t.growNodes(int(old + b.delta))
	}
	for k := 0; k <= len(b.patches); k++ {
		if from, n, d := b.run(k, old); d < 0 {
			t.moveNodes(from, n, d)
		}
	}
	for k := len(b.patches); k >= 0; k-- {
		if from, n, d := b.run(k, old); d > 0 {
			t.moveNodes(from, n, d)
		}
	}
	if b.delta < 0 {
		t.truncate(int(old+b.delta), len(t.ps))
	}
	for _, p := range b.patches {
		if p.count > 0 {
			t.buildKeyedRange(p.to, p.lo, p.hi, keys.CellBox(t.box, p.key), p.key, p.f)
		}
	}
	for _, s := range b.spine {
		t.Skip[s.at] = s.skip
		t.internalMoments(s.at)
	}
	clear(b.patches)
	b.patches, b.spine = b.patches[:0], b.spine[:0]
}

// run returns the k-th run of kept nodes among old ones — the slots
// between patch k-1 and patch k — and how far the patches before it shift
// it.
func (b *Builder) run(k int, old int32) (from, n, d int32) {
	if k > 0 {
		p := b.patches[k-1]
		from, d = p.end, p.to+p.count-p.end
	}
	end := old
	if k < len(b.patches) {
		end = b.patches[k].at
	}
	return from, end - from, d
}
