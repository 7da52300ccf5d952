package tree

import (
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Builder constructs keyed octrees across time-steps. Particles move
// little between steps, so most of the (key, ID)-sorted order survives
// from one step to the next: Step retains the sorted KeyIdx permutation,
// recomputes the Morton keys in place and re-sorts with an adaptive
// nearly-sorted pass, then builds the whole tree over the sorted
// snapshot. The sort is where the reuse pays; the tree is rebuilt every
// step, as the paper rebuilds each processor's local tree.
//
// Every tree returned by Step is bit-identical — column for column — to
// BuildKeyed over the same particles, because both sort to the same
// permutation and run the same build. This is the two-clock rule: only
// the host clock changes.
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

	last BuildReport
}

// BuildReport describes what the most recent Step did — host-side
// diagnostics only; nothing here feeds back into the simulation.
type BuildReport struct {
	Cold      bool // sorted from scratch (first step, membership change, or aliased input)
	N         int
	Displaced int // elements the adaptive re-sort had to move
	Refreshed int // always 0: no node is kept across steps
	Rebuilt   int // nodes built: the whole tree

	KeyDur  time.Duration // Morton key recomputation
	SortDur time.Duration // adaptive (or full) re-sort
	TreeDur time.Duration // gather and build
}

// NewBuilder returns a builder for trees rooted at the cube
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

// Step builds the octree for the particles. The retained permutation
// applies when the input holds the same particles (by ID) in the same
// order as the previous Step — the invariant of a stepped simulation
// whose authoritative body slice is indexed by ID — and then only the
// keys are recomputed and re-sorted adaptively. Any mismatch (length
// change, reordering, first call) sorts cold, as BuildKeyed does, and so,
// from a copy, does input that shares memory with the snapshot the
// gather overwrites.
func (b *Builder) Step(particles []dist.Particle) *Tree {
	aliased := b.t != nil && overlaps(particles, b.t.ps)
	if aliased {
		particles = append([]dist.Particle(nil), particles...)
	}
	n := len(particles)
	t0 := time.Now()
	warm := !aliased && b.t != nil && n == len(b.t.ps) && n > 0 && b.rekey(particles)
	if !warm {
		b.pairs = keyPairs(b.pairs, particles, b.box)
	}
	keyDur := time.Since(t0)

	t0 = time.Now()
	displaced := 0
	if warm {
		displaced = keys.SortKeyIdxAdaptive(b.pairs, b.scratch)
	} else {
		b.scratch = grow(b.scratch, n)
		keys.SortKeyIdx(b.pairs, b.scratch)
	}
	sortDur := time.Since(t0)

	t0 = time.Now()
	if b.t == nil {
		b.t = newTree(b.box, b.leafCap)
	}
	if !warm {
		b.t.growParticles(0) // nothing to keep: growing copies no old snapshot
		b.t.growParticles(n)
	}
	b.gather(particles)
	b.rebuild()
	b.t.Degree = -1
	b.last = BuildReport{Cold: !warm, N: n, Displaced: displaced, Rebuilt: b.t.NumNodes(),
		KeyDur: keyDur, SortDur: sortDur, TreeDur: time.Since(t0)}
	return b.t
}

// rekey recomputes the Morton keys in place over the retained sorted
// permutation, whose Idx addresses the input slice. It reports false, and
// leaves the keys half written, when an ID shows the input was reordered.
func (b *Builder) rekey(particles []dist.Particle) bool {
	for i := range b.pairs {
		p := &particles[b.pairs[i].Idx]
		if int32(p.ID) != b.pairs[i].ID {
			return false
		}
		b.pairs[i].Key = keys.FullKey3(p.Pos, b.box)
	}
	return true
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

// rebuild writes the whole tree over the snapshot into the retained node
// columns, growing them only when the tree outgrows their capacity.
func (b *Builder) rebuild() {
	t := b.t
	count, f := countKeyedRange(t.ks, 0, b.leafCap)
	t.truncate(0, len(t.ps))
	t.growNodes(count)
	t.buildKeyedRange(0, 0, int32(len(t.ps)), b.box, keys.CellKey{}, f)
}
