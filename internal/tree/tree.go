// Package tree implements the serial Barnes–Hut octree: construction with
// s-particle leaves, centre-of-mass and multipole upward passes, the
// α multipole acceptance criterion, force and potential traversals, and
// the per-node interaction counters that drive the paper's load-balancing
// schemes. The distributed formulations in package parbh are built from
// the same trees: each processor owns subtrees of this form and grafts
// them under a replicated top tree.
package tree

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/phys"
	"repro/internal/vec"
)

// DefaultLeafCap is the default maximum number of particles in a leaf
// (the paper's s parameter).
const DefaultLeafCap = 8

// MaxDepth bounds the octree depth. 21 levels is the Morton key
// resolution; beyond that coincident particles would recurse forever, so
// deeper cells become oversized leaves.
const MaxDepth = keys.MaxBits3D

// Tree is a Barnes–Hut octree stored as the columns the packet sweep
// reads (Cols documents them), nodes in DFS (Morton) pre-order: node i's
// subtree is [i, Skip[i]), an internal node's first child is i+1 and each
// further child starts at the previous one's Skip. Every node — internal
// ones too — holds the particle range [Lo[i], Hi[i]) of the particle
// columns, which are Particles' particles transposed; for a keyed build
// that is the (key, ID)-sorted snapshot, so a subtree's particles are
// contiguous. A node is identified by its index; a built tree's root is
// node 0. Besides Exp, no column holds a pointer.
//
// AccelAll and PotentialAll are the recursive traversal; AccelSweep and
// PotentialSweep run the packet sweep over the same columns.
type Tree struct {
	Cols
	Key []uint64 // packed keys.CellKey (CellKey.Uint64) of each node
	// Load counts the particles each node computed interactions with
	// during the last force-computation phase (Section 3.3: "each node in
	// the tree keeps track of the number of particles it interacts
	// with"). For leaves it counts particle–particle interactions.
	Load []int64

	LeafCap int
	Degree  int // multipole degree of Exp, -1 if absent

	ps    []dist.Particle // the particles, in particle-column order
	ks    []uint64        // their full-resolution keys within box (keyed builds)
	box   vec.Box         // the level-0 cell: node i's box is its key's cell in it
	boxes []vec.Box       // each node's box, for collapsed builds only

	sw Sweep // the packet sweep's state; its Cols alias the tree's only while it runs
}

// newTree returns an empty tree of the cells of rootBox.
func newTree(rootBox vec.Box, leafCap int) *Tree {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	return &Tree{LeafCap: leafCap, Degree: -1, box: rootBox}
}

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int { return len(t.Kind) }

// IsLeaf reports whether node i stores particles directly.
func (t *Tree) IsLeaf(i int32) bool { return t.Kind[i] == KindLeaf }

// Count returns the number of particles under node i.
func (t *Tree) Count(i int32) int { return int(t.Hi[i] - t.Lo[i]) }

// Cell returns node i's hierarchical cell identity.
func (t *Tree) Cell(i int32) keys.CellKey { return keys.CellKeyFromUint64(t.Key[i]) }

// level returns node i's depth in the cell hierarchy.
func (t *Tree) level(i int32) int { return (bits.Len64(t.Key[i]) - 1) / 3 }

// COM returns node i's centre of mass.
func (t *Tree) COM(i int32) vec.V3 { return vec.V3{X: t.ComX[i], Y: t.ComY[i], Z: t.ComZ[i]} }

// Box returns node i's spatial extent (a cube): the cell of its key,
// halved down from the root box exactly as the build halved it.
func (t *Tree) Box(i int32) vec.Box {
	if t.boxes != nil {
		return t.boxes[i]
	}
	return keys.CellBox(t.box, t.Cell(i))
}

// Boxes returns every node's Box in dst's storage, in one pass that halves
// each child's box from its parent's as the build did — for traversals
// that would otherwise call Box per visit.
func (t *Tree) Boxes(dst []vec.Box) []vec.Box {
	if t.boxes != nil {
		return append(dst[:0], t.boxes...)
	}
	dst = grow(dst[:0], t.NumNodes())
	for i, next := int32(0), int32(0); i < int32(len(dst)); i++ {
		if i == next { // the root of the tree or of a push-down fragment
			dst[i], next = t.Box(i), t.Skip[i]
		}
		for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
			dst[c] = dst[i].Octant(int(t.Key[c] & 7))
		}
	}
	return dst
}

// Particles returns the particles under node i, in column order.
func (t *Tree) Particles(i int32) []dist.Particle { return t.ps[t.Lo[i]:t.Hi[i]] }

// pos returns the position in particle column j.
func (t *Tree) pos(j int32) vec.V3 { return vec.V3{X: t.PX[j], Y: t.PY[j], Z: t.PZ[j]} }

// grow returns s at length n, keeping its contents.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// growNodes sets the node count to n, keeping the first nodes.
func (t *Tree) growNodes(n int) {
	t.Kind = grow(t.Kind, n)
	t.ComX, t.ComY, t.ComZ = grow(t.ComX, n), grow(t.ComY, n), grow(t.ComZ, n)
	t.Mass, t.Side = grow(t.Mass, n), grow(t.Side, n)
	t.Exp = grow(t.Exp, n)
	t.Skip, t.Lo, t.Hi = grow(t.Skip, n), grow(t.Lo, n), grow(t.Hi, n)
	t.Key, t.Load = grow(t.Key, n), grow(t.Load, n)
}

// moveNodes moves the n nodes from slot from on by d slots, their Skip
// with them.
func (t *Tree) moveNodes(from, n, d int32) {
	to := from + d
	shift(t.Kind, from, to, n)
	shift(t.ComX, from, to, n)
	shift(t.ComY, from, to, n)
	shift(t.ComZ, from, to, n)
	shift(t.Mass, from, to, n)
	shift(t.Side, from, to, n)
	shift(t.Exp, from, to, n)
	shift(t.Skip, from, to, n)
	shift(t.Lo, from, to, n)
	shift(t.Hi, from, to, n)
	shift(t.Key, from, to, n)
	shift(t.Load, from, to, n)
	for j := to; j < to+n; j++ {
		t.Skip[j] += d
	}
}

// shift copies s[from:from+n] to s[to:to+n].
func shift[T any](s []T, from, to, n int32) { copy(s[to:to+n], s[from:from+n]) }

// growParticles sets the particle count to n, keeping the first ones.
func (t *Tree) growParticles(n int) {
	t.ps, t.ks = grow(t.ps, n), grow(t.ks, n)
	t.ID = grow(t.ID, n)
	t.PX, t.PY, t.PZ, t.PM = grow(t.PX, n), grow(t.PY, n), grow(t.PZ, n), grow(t.PM, n)
}

// setParticle writes particle column j: p with key k.
func (t *Tree) setParticle(j int, p *dist.Particle, k uint64) {
	t.ps[j], t.ks[j] = *p, k
	t.ID[j] = int32(p.ID)
	t.PX[j], t.PY[j], t.PZ[j], t.PM[j] = p.Pos.X, p.Pos.Y, p.Pos.Z, p.Mass
}

// truncate drops every node from n on and every particle from m on — what
// MaximalCells appended — keeping capacity.
func (t *Tree) truncate(n, m int) {
	clear(t.Exp[n:])
	t.growNodes(n)
	t.growParticles(m)
}

// Reset empties the tree, keeping capacity.
func (t *Tree) Reset() {
	t.truncate(0, 0)
	t.Degree = -1
}

// setNode writes node i's identity and range and clears what the last
// step left there; Skip is i+1 until the caller closes an internal node.
func (t *Tree) setNode(i int32, kind uint8, box vec.Box, key keys.CellKey, lo, hi int32) {
	t.Kind[i] = kind
	t.Key[i] = key.Uint64()
	t.Side[i] = box.LongestSide()
	t.Lo[i], t.Hi[i] = lo, hi
	t.Skip[i] = i + 1
	t.Load[i] = 0
	t.Exp[i] = nil
}

// leafMoments sets leaf i's mass and centre of mass from its particles.
func (t *Tree) leafMoments(i int32) {
	var m float64
	var com vec.V3
	for j := t.Lo[i]; j < t.Hi[i]; j++ {
		m += t.PM[j]
		com = com.Add(t.pos(j).Scale(t.PM[j]))
	}
	t.setMoments(i, m, com)
}

// internalMoments sets internal node i's mass and centre of mass from its
// children's, in child order.
func (t *Tree) internalMoments(i int32) {
	var m float64
	var com vec.V3
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		m += t.Mass[c]
		com = com.Add(t.COM(c).Scale(t.Mass[c]))
	}
	t.setMoments(i, m, com)
}

func (t *Tree) setMoments(i int32, m float64, com vec.V3) {
	if m > 0 {
		com = com.Scale(1 / m)
	}
	t.Mass[i] = m
	t.ComX[i], t.ComY[i], t.ComZ[i] = com.X, com.Y, com.Z
}

// Options configure tree construction.
type Options struct {
	// LeafCap is the s parameter: cells with more than LeafCap particles
	// are split. Zero means DefaultLeafCap.
	LeafCap int
	// Domain overrides the root cell. When zero, the root is the cube
	// around the particles' bounding box.
	Domain vec.Box
	// CollapseBoxes enables the box-collapsing technique of Section 2:
	// before splitting, a cell shrinks to the smallest cube containing
	// its particles, so a tight pair in a huge cell is resolved in O(1)
	// subdivisions instead of one per halving. This bounds the build at
	// O(n log n) where the plain method is unbounded. Collapsed cells are
	// no longer aligned with the hierarchical Morton decomposition, so
	// the option applies to serial trees only (the distributed engines
	// rely on key-aligned cells).
	CollapseBoxes bool
}

// Build constructs the octree for the particles. The root cell is the
// cube enclosing the domain so that octant subdivision preserves cubic
// cells (the MAC's size/distance test assumes cubes). Without
// CollapseBoxes this is the cold entry of Builder: a one-shot Builder
// runs the key sort and the range build with no retained state.
func Build(particles []dist.Particle, opt Options) *Tree {
	box := opt.Domain
	if box == (vec.Box{}) {
		pts := make([]vec.V3, len(particles))
		for i := range particles {
			pts[i] = particles[i].Pos
		}
		box = vec.BoundingBox(pts).Expand(1e-9)
	}
	if !opt.CollapseBoxes {
		return NewBuilder(box, opt.LeafCap).Step(particles)
	}
	root := box.Cube()
	t := newTree(root, opt.LeafCap)
	t.buildCollapsed(particles, root, keys.CellKey{})
	return t
}

// parallelBuildMin is the subtree size above which octant children are
// counted and built concurrently, each child into its own window of the
// build's node columns. Below it the goroutine overhead exceeds the win.
// The tree and its layout are identical either way — only wall-clock
// changes.
const parallelBuildMin = 8192

// buildParallel reports whether a subtree of this size should fan its
// octants out to goroutines: large enough to amortize the overhead, and
// the host actually has more than one worker available.
func buildParallel(n int) bool {
	return n >= parallelBuildMin && compute.Workers(n) > 1
}

// buildCollapsed appends the subtree of ps with box collapsing: the cell
// first shrinks to the smallest cube enclosing its particles (padded so
// boundary particles stay strictly inside), then splits by geometric
// octant — collapsed cells are not cells of the Morton hierarchy, so
// there are no key digits to split by, which is why this is the one build
// that does not go through buildKeyedRange, and why its boxes are a column
// of their own. Depth is bounded by the particle count, not the geometry,
// so no MaxDepth fallback is needed; key levels are still capped to stay
// meaningful. Ablation-only, it appends nodes one by one.
func (t *Tree) buildCollapsed(ps []dist.Particle, box vec.Box, key keys.CellKey) {
	i := int32(len(t.Kind))
	t.growNodes(int(i) + 1)
	t.boxes = append(t.boxes, box)
	lo := int32(len(t.ps))
	leaf := func() {
		t.growParticles(int(lo) + len(ps))
		for j := range ps {
			t.setParticle(int(lo)+j, &ps[j], 0)
		}
		t.setNode(i, KindLeaf, box, key, lo, lo+int32(len(ps)))
		t.leafMoments(i)
	}
	if len(ps) <= t.LeafCap {
		leaf()
		return
	}
	// Collapse: tighten to the particles' bounding cube when it is
	// substantially smaller than the current cell. The coincidence test
	// uses the raw (unpadded) extent: positions closer than one ulp are
	// identical in float64 and can never be separated.
	pts := make([]vec.V3, len(ps))
	for j := range ps {
		pts[j] = ps[j].Pos
	}
	raw := vec.BoundingBox(pts)
	if raw.LongestSide() == 0 {
		// All particles coincide: keep them as one leaf.
		leaf()
		return
	}
	if tight := raw.Expand(raw.LongestSide() * 1e-9).Cube(); tight.LongestSide() < 0.5*box.LongestSide() {
		box = tight
		t.boxes[i] = tight
	}
	var buckets [8][]dist.Particle
	for j := range ps {
		o := box.OctantOf(ps[j].Pos)
		buckets[o] = append(buckets[o], ps[j])
	}
	childLevel := key.Level
	if int(childLevel) < MaxDepth {
		childLevel++
	}
	for o := 0; o < 8; o++ {
		if len(buckets[o]) > 0 {
			t.buildCollapsed(buckets[o], box.Octant(o), keys.CellKey{Level: childLevel, Key: key.Key<<3 | keys.Morton(o)})
		}
	}
	t.setNode(i, KindInternal, box, key, lo, int32(len(t.ps)))
	t.Skip[i] = int32(len(t.Kind))
	t.internalMoments(i)
}

// BuildKeyed is Build over the given domain (it is cubed internally)
// without box collapsing.
//
// Every octant decision of the build is a digit of the particle's
// quantized Morton key, never a geometric comparison. The two agree
// except for particles within a rounding ulp of a cell boundary — but the
// parallel DPDA decomposition defines ownership by key ranges, so trees
// must be built with exactly the arithmetic that defines those ranges or
// a processor could claim cells inside another's range. Keys are computed
// once, radix-sorted with the particle ID tie-break, and the tree is
// built over contiguous key ranges: child cells are located by binary
// search on the 3-bit octant digit. Leaves hold their particles in
// (key, ID) order whatever the input order was.
func BuildKeyed(particles []dist.Particle, domain vec.Box, leafCap int) *Tree {
	return NewBuilder(domain, leafCap).Step(particles)
}

// BuildSubtreeKeyed is BuildKeyed for the subtree of cell key alone, whose
// root is node 0; rootBox is the global root cell the particle keys are
// quantized against and the cell boxes halved from. Data shipping builds
// the leaves it fetches with it.
func BuildSubtreeKeyed(particles []dist.Particle, rootBox vec.Box, key keys.CellKey, leafCap int) *Tree {
	t := newTree(rootBox, leafCap)
	t.AddSubtreeKeyed(particles, key)
	return t
}

// NewForest returns an empty tree that AddSubtreeKeyed fills with the
// subtrees of cells of rootBox, one after another.
func NewForest(rootBox vec.Box, leafCap int) *Tree { return newTree(rootBox, leafCap) }

// AddSubtreeKeyed appends the keyed subtree of cell key over the particles
// (their keys must lie in the cell) and returns its root. The distributed
// construction builds a processor's SPSA/SPDA clusters with it, each under
// its branch node.
func (t *Tree) AddSubtreeKeyed(particles []dist.Particle, key keys.CellKey) int32 {
	pairs := keyPairs(nil, particles, t.box)
	keys.SortKeyIdxAdaptive(pairs, nil)
	lo := len(t.ps)
	t.growParticles(lo + len(pairs))
	for j, pr := range pairs {
		t.setParticle(lo+j, &particles[pr.Idx], pr.Key)
	}
	return t.appendKeyed(int32(lo), int32(len(t.ps)), keys.CellBox(t.box, key), key)
}

// keyPairs fills pairs, grown to the particles' count, with each
// particle's (full-resolution key within rootBox, ID, index) and returns
// it.
func keyPairs(pairs []keys.KeyIdx, particles []dist.Particle, rootBox vec.Box) []keys.KeyIdx {
	pairs = grow(pairs[:0], len(particles))
	for i := range particles {
		pairs[i] = keys.KeyIdx{
			Key: keys.FullKey3(particles[i].Pos, rootBox),
			ID:  int32(particles[i].ID),
			Idx: int32(i),
		}
	}
	return pairs
}

// SortByKey returns a copy of the particles sorted by (full-resolution
// Morton key within rootBox, ID) together with the aligned key slice.
// Each key is computed once and carried through the sort; the adaptive
// pass makes input that is already nearly in order — a rank's retained
// particles plus a few immigrants, a leaf of a keyed tree — cost one scan.
func SortByKey(particles []dist.Particle, rootBox vec.Box) ([]dist.Particle, []uint64) {
	pairs := keyPairs(nil, particles, rootBox)
	keys.SortKeyIdxAdaptive(pairs, nil)
	ps := make([]dist.Particle, len(particles))
	ks := make([]uint64, len(particles))
	for i := range pairs {
		ps[i] = particles[pairs[i].Idx]
		ks[i] = pairs[i].Key
	}
	return ps, ks
}

// keyOctant extracts the octant a full-resolution key takes at the given
// tree level (level 0 chooses the root's child).
func keyOctant(k uint64, level int) int {
	return int(k>>(3*uint(keys.MaxBits3D-1-level))) & 7
}

// octantBounds splits a key-sorted range of one cell at the given level
// into its eight child ranges: bounds[o] is the first index whose octant
// digit is ≥ o. The digit is nondecreasing within the range because all
// its keys share the cell's prefix, so each bound is a binary search.
func octantBounds(ks []uint64, level int) (bounds [9]int) {
	bounds[8] = len(ks)
	for o := 7; o >= 1; o-- {
		lo, hi := 0, bounds[o+1]
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keyOctant(ks[mid], level) < o {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[o] = lo
	}
	return bounds
}

// fanout is the count pass's plan for a range it splits across
// goroutines: octant o's subtree fills slots [at[o], at[o+1]) after the
// range's root, and sub[o] is that octant's own plan (nil where it is
// built serially).
type fanout struct {
	at  [9]int
	sub [8]*fanout
}

// eachOctant runs fn on its own goroutine for every non-empty octant of
// bounds and waits for them all.
func eachOctant(bounds [9]int, fn func(o, lo, hi int)) {
	var wg sync.WaitGroup
	for o := 0; o < 8; o++ {
		if lo, hi := bounds[o], bounds[o+1]; lo < hi {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(o, lo, hi)
			}()
		}
	}
	wg.Wait()
}

// countKeyedRange returns the number of nodes buildKeyedRange builds over
// the key range ks of a cell at the given level, by the build's own split
// rule and octantBounds. It also makes the fan-out decision: a range that
// buildParallel splits is counted concurrently and planned as a fanout.
func countKeyedRange(ks []uint64, level, leafCap int) (int, *fanout) {
	if len(ks) <= leafCap || level >= MaxDepth {
		return 1, nil
	}
	bounds := octantBounds(ks, level)
	if !buildParallel(len(ks)) {
		count := 1
		for o := 0; o < 8; o++ {
			if lo, hi := bounds[o], bounds[o+1]; lo < hi {
				c, _ := countKeyedRange(ks[lo:hi], level+1, leafCap)
				count += c
			}
		}
		return count, nil
	}
	f := &fanout{}
	eachOctant(bounds, func(o, lo, hi int) {
		f.at[o+1], f.sub[o] = countKeyedRange(ks[lo:hi], level+1, leafCap)
	})
	for o := 1; o <= 8; o++ {
		f.at[o] += f.at[o-1]
	}
	return 1 + f.at[8], f
}

// appendKeyed counts the subtree of cell (box, key) over particle columns
// [lo, hi), which are key-sorted, appends that many nodes and builds the
// subtree into them. It returns the subtree's root.
func (t *Tree) appendKeyed(lo, hi int32, box vec.Box, key keys.CellKey) int32 {
	count, f := countKeyedRange(t.ks[lo:hi], int(key.Level), t.LeafCap)
	at := int32(len(t.Kind))
	t.growNodes(int(at) + count)
	t.buildKeyedRange(at, lo, hi, box, key, f)
	return at
}

// buildKeyedRange builds the subtree of cell (box, key) over the
// key-sorted particle columns [lo, hi) — the only octant-splitting code
// besides buildCollapsed — into node slots from at on, in DFS pre-order,
// and returns the slot past it. Child ranges come from octantBounds. With
// a fanout the octants build concurrently, each into the window of slots
// the serial build would fill.
func (t *Tree) buildKeyedRange(at, lo, hi int32, box vec.Box, key keys.CellKey, f *fanout) int32 {
	if hi-lo <= int32(t.LeafCap) || int(key.Level) >= MaxDepth {
		t.setNode(at, KindLeaf, box, key, lo, hi)
		t.leafMoments(at)
		return at + 1
	}
	t.setNode(at, KindInternal, box, key, lo, hi)
	bounds := octantBounds(t.ks[lo:hi], int(key.Level))
	if f != nil {
		eachOctant(bounds, func(o, clo, chi int) {
			t.buildKeyedRange(at+1+int32(f.at[o]), lo+int32(clo), lo+int32(chi), box.Octant(o), key.Child(o), f.sub[o])
		})
		t.Skip[at] = at + 1 + int32(f.at[8])
	} else {
		next := at + 1
		for o := 0; o < 8; o++ {
			if clo, chi := bounds[o], bounds[o+1]; clo < chi {
				next = t.buildKeyedRange(next, lo+int32(clo), lo+int32(chi), box.Octant(o), key.Child(o), nil)
			}
		}
		t.Skip[at] = next
	}
	t.internalMoments(at)
	return t.Skip[at]
}

// MaximalCells emits, in Morton order, the maximal cells of the keyed
// subtree under node i whose key range lies inside [lo, hi) — a
// processor's branch nodes under the DPDA decomposition, whose zones are
// key ranges. A leaf that straddles a zone boundary is pushed down ("we
// artificially force the particles down", Section 3.1): its particle range
// is split by key octant into fresh subtrees appended to the tree, not
// linked under the leaf, until the fragments are contained. A MaxDepth
// leaf covers a single key and cannot be split, so it is emitted whole:
// particles whose keys lie outside [lo, hi) — there are none when the
// caller holds exactly its zone, and zone bounds never separate equal
// keys (partition.EqualCountZones) — come out in such single-key cells
// instead of being dropped.
func (t *Tree) MaximalCells(i int32, lo, hi uint64, emit func(int32)) {
	if t.Count(i) == 0 {
		return
	}
	key := t.Cell(i)
	if cLo, cHi := key.Range(); cLo >= lo && cHi <= hi {
		emit(i)
		return
	}
	if !t.IsLeaf(i) {
		for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
			t.MaximalCells(c, lo, hi, emit)
		}
		return
	}
	if int(key.Level) >= MaxDepth {
		emit(i)
		return
	}
	plo, phi := t.Lo[i], t.Hi[i]
	bounds := octantBounds(t.ks[plo:phi], int(key.Level))
	box := t.Box(i)
	for o := 0; o < 8; o++ {
		if clo, chi := bounds[o], bounds[o+1]; clo < chi {
			c := t.appendKeyed(plo+int32(clo), plo+int32(chi), box.Octant(o), key.Child(o))
			t.MaximalCells(c, lo, hi, emit)
		}
	}
}

// BuildExpansions populates every node's multipole expansion of the given
// degree about its centre of mass: P2M at the leaves, M2M (exact
// translation) on the way up. After this call the tree can serve
// potential-mode traversals.
func (t *Tree) BuildExpansions(degree int) {
	t.Degree = degree
	t.BuildExpansionsAt(0, degree)
}

// BuildExpansionsAt populates the expansions of the subtree under node i.
func (t *Tree) BuildExpansionsAt(i int32, degree int) {
	if t.Count(i) == 0 {
		return
	}
	com := t.COM(i)
	e := phys.NewExpansion(degree, com)
	if t.IsLeaf(i) {
		for j := t.Lo[i]; j < t.Hi[i]; j++ {
			e.AddParticle(t.PM[j], t.pos(j))
		}
	} else {
		for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
			if t.Count(c) == 0 {
				continue
			}
			t.BuildExpansionsAt(c, degree)
			e.Add(t.Exp[c].TranslateTo(com))
		}
	}
	t.Exp[i] = e
}

// ResetLoads zeroes the interaction counters throughout the tree.
func (t *Tree) ResetLoads() { clear(t.Load) }

// SumLoads propagates leaf/interior interaction counts up the tree so
// that each node's Load is the total for its subtree, and returns the
// root total W (Section 3.3.3: "After the force computation phase, this
// variable is summed up along the tree").
func (t *Tree) SumLoads() int64 { return t.SumLoadsAt(0) }

// SumLoadsAt is SumLoads for the subtree under node i.
func (t *Tree) SumLoadsAt(i int32) int64 {
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		t.Load[i] += t.SumLoadsAt(c)
	}
	return t.Load[i]
}

// Stats summarizes a traversal's work in the units of the paper's cost
// model.
type Stats struct {
	MACTests int64 // multipole acceptance tests evaluated
	PC       int64 // particle–cluster interactions
	PP       int64 // particle–particle interactions
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.MACTests += o.MACTests
	s.PC += o.PC
	s.PP += o.PP
}

// Flops converts the counts to floating-point operations at the given
// multipole degree.
func (s Stats) Flops(degree int) float64 {
	return float64(s.MACTests)*phys.MACFlops +
		float64(s.PC)*phys.InteractionFlops(degree) +
		float64(s.PP)*phys.PPFlops
}

// Interactions returns the paper's F measure: total force computations.
func (s Stats) Interactions() int64 { return s.PC + s.PP }

// Accepts reports whether the multipole acceptance criterion holds for
// node i observed from pos: the ratio of the box dimension to the
// distance from the point to the node's centre of mass is below α.
func (t *Tree) Accepts(i int32, pos vec.V3, alpha float64) bool {
	d := pos.Dist(t.COM(i))
	if d == 0 {
		return false
	}
	return t.Side[i]/d < alpha
}

// The recursive traversals below are the reference kernel: one particle
// at a time, children in Morton order. AccelAll and PotentialAll drive
// them as the tests' oracle for the packet sweep, and data shipping serves
// its grafted subtrees with AccelFrom and PotentialFrom.

// accel descends the subtree under node i accumulating the acceleration
// at pos and charging each node's Load in loads (the tree's own column,
// or a worker's shard of a parallel traversal).
func (t *Tree) accel(i int32, pos vec.V3, selfID int32, alpha, eps float64, s *Stats, loads []int64) vec.V3 {
	if t.IsLeaf(i) {
		lo, hi := t.Lo[i], t.Hi[i]
		if lo == hi {
			return vec.V3{}
		}
		var a vec.V3
		for j := lo; j < hi; j++ {
			if t.ID[j] == selfID {
				continue
			}
			a = a.Add(phys.Accel(pos, t.pos(j), t.PM[j], eps))
			s.PP++
		}
		loads[i] += int64(hi - lo)
		return a
	}
	s.MACTests++
	if t.Accepts(i, pos, alpha) {
		s.PC++
		loads[i]++
		return phys.Accel(pos, t.COM(i), t.Mass[i], eps)
	}
	var a vec.V3
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		a = a.Add(t.accel(c, pos, selfID, alpha, eps, s, loads))
	}
	return a
}

// pot mirrors accel for potential-mode traversals.
func (t *Tree) pot(i int32, pos vec.V3, selfID int32, alpha float64, s *Stats, loads []int64) float64 {
	if t.IsLeaf(i) {
		lo, hi := t.Lo[i], t.Hi[i]
		if lo == hi {
			return 0
		}
		var phi float64
		for j := lo; j < hi; j++ {
			if t.ID[j] == selfID {
				continue
			}
			phi += phys.Potential(pos, t.pos(j), t.PM[j], 0)
			s.PP++
		}
		loads[i] += int64(hi - lo)
		return phi
	}
	s.MACTests++
	if t.Accepts(i, pos, alpha) {
		s.PC++
		loads[i]++
		return t.Exp[i].EvalPotential(pos)
	}
	var phi float64
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		phi += t.pot(c, pos, selfID, alpha, s, loads)
	}
	return phi
}

// AccelAt computes the Barnes–Hut monopole approximation of the
// gravitational acceleration at pos. selfID excludes that particle from
// near-field sums (pass a negative value for field points). Interaction
// counts are recorded into stats (which may be nil) and into the per-node
// Load counters.
func (t *Tree) AccelAt(pos vec.V3, selfID int, alpha, eps float64, stats *Stats) vec.V3 {
	return t.AccelFrom(0, pos, selfID, alpha, eps, stats)
}

// PotentialAt computes the Barnes–Hut potential at pos using the nodes'
// degree-k multipole expansions (BuildExpansions must have run). selfID
// excludes that particle from near-field sums.
func (t *Tree) PotentialAt(pos vec.V3, selfID int, alpha float64, stats *Stats) float64 {
	if t.Degree < 0 {
		panic("tree: PotentialAt requires BuildExpansions")
	}
	return t.PotentialFrom(0, pos, selfID, alpha, stats)
}

// AccelFrom computes the monopole-approximation acceleration at pos due
// to the subtree under node i, applying the MAC at every internal node
// (including i itself). Used by the parallel engines, where a processor
// serves a shipped particle against the subtree under one of its branch
// nodes.
func (t *Tree) AccelFrom(i int32, pos vec.V3, selfID int, alpha, eps float64, stats *Stats) vec.V3 {
	var s Stats
	a := t.accel(i, pos, int32(selfID), alpha, eps, &s, t.Load)
	if stats != nil {
		stats.Add(s)
	}
	return a
}

// PotentialFrom is AccelFrom for degree-k potential traversals; the
// subtree's expansions must have been built.
func (t *Tree) PotentialFrom(i int32, pos vec.V3, selfID int, alpha float64, stats *Stats) float64 {
	var s Stats
	phi := t.pot(i, pos, int32(selfID), alpha, &s, t.Load)
	if stats != nil {
		stats.Add(s)
	}
	return phi
}

// ParticleLevels returns the sum over the nodes under node i of their
// particle counts, i.e. the total number of particle–level hops performed
// while building the subtree — the unit of the tree-construction cost
// model.
func (t *Tree) ParticleLevels(i int32) int64 {
	var total int64
	for j := i; j < t.Skip[i]; j++ {
		total += int64(t.Hi[j] - t.Lo[j])
	}
	return total
}

// CountNodes returns the number of nodes in the subtree under node i.
func (t *Tree) CountNodes(i int32) int { return int(t.Skip[i] - i) }

// AccelAll computes accelerations for every particle in ps against the
// tree, returning one acceleration per particle and the combined stats.
//
// The loop runs across all cores, but the results — accelerations, Stats,
// and per-node Load counters — are bit-identical to the sequential loop:
// each particle's traversal is independent, and the integer counters are
// accumulated in per-worker shards merged exactly after the join.
func (t *Tree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	s := t.all(len(ps), func(i int, s *Stats, loads []int64) {
		out[i] = t.accel(0, ps[i].Pos, int32(ps[i].ID), alpha, eps, s, loads)
	})
	return out, s
}

// PotentialAll computes potentials for every particle in ps. Like
// AccelAll it runs multi-core with results bit-identical to the
// sequential loop.
func (t *Tree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	if t.Degree < 0 {
		panic("tree: PotentialAll requires BuildExpansions")
	}
	out := make([]float64, len(ps))
	s := t.all(len(ps), func(i int, s *Stats, loads []int64) {
		out[i] = t.pot(0, ps[i].Pos, int32(ps[i].ID), alpha, s, loads)
	})
	return out, s
}

// all runs one traversal per particle index across the host's workers,
// each charging a Load shard of its own that is merged into the tree after
// the join.
func (t *Tree) all(n int, one func(i int, s *Stats, loads []int64)) Stats {
	workers := compute.Workers(n)
	if workers <= 1 {
		var s Stats
		for i := 0; i < n; i++ {
			one(i, &s, t.Load)
		}
		return s
	}
	shardStats := make([]Stats, workers)
	shardLoads := make([][]int64, workers)
	compute.ParallelBlocks(n, func(w, lo, hi int) {
		loads := make([]int64, len(t.Load))
		for i := lo; i < hi; i++ {
			one(i, &shardStats[w], loads)
		}
		shardLoads[w] = loads
	})
	var s Stats
	for w := 0; w < workers; w++ {
		s.Add(shardStats[w])
		for j, v := range shardLoads[w] {
			t.Load[j] += v
		}
	}
	return s
}

// WalkLeaves visits the non-empty leaves in Morton (left-to-right) order,
// the traversal the DPDA costzones partitioning uses. The visitor returns
// false to stop the walk early.
func (t *Tree) WalkLeaves(visit func(i int32) bool) {
	for i := int32(0); i < t.Skip[0]; i++ {
		if t.IsLeaf(i) && t.Count(i) > 0 && !visit(i) {
			return
		}
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(i int32) int {
	d := 0
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		d = max(d, t.depth(c)+1)
	}
	return d
}

// Validate checks structural invariants: particle ranges nest, counts and
// masses aggregate correctly, particles lie in their leaf boxes, and child
// cells match their keys. It returns the first violation found.
func (t *Tree) Validate() error { return t.validate(0) }

func (t *Tree) validate(i int32) error {
	key := t.Cell(i)
	if t.IsLeaf(i) {
		if t.Skip[i] != i+1 {
			return fmt.Errorf("tree: leaf %v skips to %d", key, t.Skip[i])
		}
		box := t.Box(i)
		for _, p := range t.Particles(i) {
			if !box.Contains(p.Pos) {
				return fmt.Errorf("tree: particle %d outside leaf %v", p.ID, key)
			}
		}
		return nil
	}
	next := t.Lo[i]
	mass := 0.0
	for c := i + 1; c < t.Skip[i]; c = t.Skip[c] {
		if ck := t.Cell(c); t.boxes == nil && ck != key.Child(ck.Octant()) {
			return fmt.Errorf("tree: child of %v has key %v", key, ck)
		}
		if t.Lo[c] != next {
			return fmt.Errorf("tree: child of %v starts at particle %d, not %d", key, t.Lo[c], next)
		}
		if err := t.validate(c); err != nil {
			return err
		}
		next = t.Hi[c]
		mass += t.Mass[c]
	}
	if next != t.Hi[i] {
		return fmt.Errorf("tree: node %v ends at particle %d but children at %d", key, t.Hi[i], next)
	}
	if math.Abs(mass-t.Mass[i]) > 1e-9*(1+math.Abs(t.Mass[i])) {
		return fmt.Errorf("tree: node %v mass %v but children sum %v", key, t.Mass[i], mass)
	}
	return nil
}
