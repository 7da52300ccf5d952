// Package tree implements the serial Barnes–Hut octree: construction with
// s-particle leaves, centre-of-mass and multipole upward passes, the
// α multipole acceptance criterion, force and potential traversals, and
// the per-node interaction counters that drive the paper's load-balancing
// schemes. The distributed formulations in package parbh are built from
// the same nodes: each processor owns subtrees of this form and grafts
// them under a replicated top tree.
package tree

import (
	"fmt"
	"math"
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

// Node is one cell of the octree. Internal nodes have at least one
// non-nil child; leaves carry the particles themselves.
type Node struct {
	Box   vec.Box      // spatial extent (a cube)
	Key   keys.CellKey // hierarchical cell identity
	Mass  float64      // total mass of the subtree
	COM   vec.V3       // centre of mass of the subtree
	Count int          // number of particles in the subtree

	// Load counts the particles this node computed interactions with
	// during the last force-computation phase (Section 3.3: "each node in
	// the tree keeps track of the number of particles it interacts
	// with"). For leaves it counts particle–particle interactions.
	Load int64

	Children  [8]*Node
	Particles []dist.Particle // leaf payload; nil for internal nodes

	// Exp is the node's multipole expansion about its centre of mass,
	// populated by BuildExpansions for potential-mode traversals.
	Exp *phys.Expansion

	// loadIdx is the node's position in the tree's DFS numbering,
	// assigned by indexLoads so parallel traversals can shard Load
	// counters per worker and merge them deterministically.
	loadIdx int32
}

// IsLeaf reports whether the node stores particles directly.
func (n *Node) IsLeaf() bool { return n.Particles != nil || n.Count == 0 }

// Tree is a Barnes–Hut octree over a particle set.
type Tree struct {
	Root    *Node
	LeafCap int
	Degree  int // multipole degree of the expansions, -1 if absent
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
	leafCap := opt.LeafCap
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	ps := append([]dist.Particle(nil), particles...)
	t := &Tree{LeafCap: leafCap, Degree: -1}
	t.Root = buildCollapsed(ps, box.Cube(), keys.CellKey{}, leafCap)
	return t
}

// parallelBuildMin is the subtree size above which octant children are
// counted and built concurrently, each child into its own window of the
// build's node slice. Below it the goroutine overhead exceeds the win. The
// tree and its layout are identical either way — only wall-clock changes.
const parallelBuildMin = 8192

// buildParallel reports whether a subtree of this size should fan its
// octants out to goroutines: large enough to amortize the overhead, and
// the host actually has more than one worker available.
func buildParallel(n int) bool {
	return n >= parallelBuildMin && compute.Workers(n) > 1
}

// fillLeaf stores the particles in a leaf and computes its mass moments.
func fillLeaf(n *Node, ps []dist.Particle) {
	n.Particles = ps
	for i := range ps {
		n.Mass += ps[i].Mass
		n.COM = n.COM.Add(ps[i].Pos.Scale(ps[i].Mass))
	}
	if n.Mass > 0 {
		n.COM = n.COM.Scale(1 / n.Mass)
	}
}

// buildCollapsed builds with box collapsing: the cell first shrinks to
// the smallest cube enclosing its particles (padded so boundary particles
// stay strictly inside), then splits by geometric octant — collapsed
// cells are not cells of the Morton hierarchy, so there are no key digits
// to split by, which is why this is the one build that does not go
// through buildKeyedRange. Depth is bounded by the particle count, not
// the geometry, so no MaxDepth fallback is needed; key levels are still
// capped to stay meaningful. Ablation-only, it allocates nodes one by one.
func buildCollapsed(ps []dist.Particle, box vec.Box, key keys.CellKey, leafCap int) *Node {
	n := &Node{}
	n.Box, n.Key = box, key
	n.Count = len(ps)
	if len(ps) == 0 {
		n.Particles = []dist.Particle{}
		return n
	}
	if len(ps) <= leafCap {
		fillLeaf(n, ps)
		return n
	}
	// Collapse: tighten to the particles' bounding cube when it is
	// substantially smaller than the current cell. The coincidence test
	// uses the raw (unpadded) extent: positions closer than one ulp are
	// identical in float64 and can never be separated.
	pts := make([]vec.V3, len(ps))
	for i := range ps {
		pts[i] = ps[i].Pos
	}
	raw := vec.BoundingBox(pts)
	if raw.LongestSide() == 0 {
		// All particles coincide: keep them as one leaf.
		fillLeaf(n, ps)
		return n
	}
	tight := raw.Expand(raw.LongestSide() * 1e-9).Cube()
	if tight.LongestSide() < 0.5*box.LongestSide() {
		box = tight
		n.Box = tight
	}
	var buckets [8][]dist.Particle
	for i := range ps {
		buckets[box.OctantOf(ps[i].Pos)] = append(buckets[box.OctantOf(ps[i].Pos)], ps[i])
	}
	childLevel := key.Level
	if int(childLevel) < MaxDepth {
		childLevel++
	}
	for o := 0; o < 8; o++ {
		if len(buckets[o]) == 0 {
			continue
		}
		ck := keys.CellKey{Level: childLevel, Key: key.Key<<3 | keys.Morton(o)}
		child := buildCollapsed(buckets[o], box.Octant(o), ck, leafCap)
		n.Children[o] = child
		n.Mass += child.Mass
		n.COM = n.COM.Add(child.COM.Scale(child.Mass))
	}
	if n.Mass > 0 {
		n.COM = n.COM.Scale(1 / n.Mass)
	}
	return n
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

// BuildSubtreeKeyed is BuildKeyed for the subtree of cell `key` (with
// extent box); rootBox is the global root cell the particle keys are
// quantized against. The distributed construction builds the subtrees
// under a processor's branch nodes with it.
func BuildSubtreeKeyed(particles []dist.Particle, rootBox vec.Box, box vec.Box, key keys.CellKey, leafCap int) *Node {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	ps, ks := SortByKey(particles, rootBox)
	return &keyedNodes(ps, ks, box, key, leafCap)[0]
}

// SortByKey returns a copy of the particles sorted by (full-resolution
// Morton key within rootBox, ID) together with the aligned key slice.
// Each key is computed once and carried through the sort; the adaptive
// pass makes input that is already nearly in order — a rank's retained
// particles plus a few immigrants, a leaf of a keyed tree — cost one scan.
func SortByKey(particles []dist.Particle, rootBox vec.Box) ([]dist.Particle, []uint64) {
	pairs := make([]keys.KeyIdx, len(particles))
	for i := range particles {
		pairs[i] = keys.KeyIdx{
			Key: keys.FullKey3(particles[i].Pos, rootBox),
			ID:  int32(particles[i].ID),
			Idx: int32(i),
		}
	}
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

// newNodes allocates the node slice of one build. It is a variable so
// tests can see every slice a build takes.
var newNodes = func(n int) []Node { return make([]Node, n) }

// keyedNodes builds the subtree of cell key over a key-sorted range: it
// counts the subtree, takes one node slice of exactly that length and
// fills it in DFS pre-order, so the subtree's root is the first element.
func keyedNodes(ps []dist.Particle, ks []uint64, box vec.Box, key keys.CellKey, leafCap int) []Node {
	count, f := countKeyedRange(ks, int(key.Level), leafCap)
	nodes := newNodes(count)
	rest := nodes
	buildKeyedRange(ps, ks, box, key, leafCap, &rest, f)
	return nodes
}

// buildKeyedRange builds the subtree for a contiguous range of the
// key-sorted particle array — the only octant-splitting code besides
// buildCollapsed — into the front of *nodes in DFS pre-order, advancing
// *nodes past it. Child ranges come from octantBounds; leaves subslice the
// shared sorted array. With a fanout the octants build concurrently, each
// into the window of *nodes the serial build would fill.
func buildKeyedRange(ps []dist.Particle, ks []uint64, box vec.Box, key keys.CellKey, leafCap int, nodes *[]Node, f *fanout) *Node {
	n := &(*nodes)[0]
	*nodes = (*nodes)[1:]
	n.Box, n.Key = box, key
	n.Count = len(ps)
	if len(ps) == 0 {
		n.Particles = []dist.Particle{}
		return n
	}
	if len(ps) <= leafCap || int(key.Level) >= MaxDepth {
		fillLeaf(n, ps)
		return n
	}
	bounds := octantBounds(ks, int(key.Level))
	if f != nil {
		rest := *nodes
		*nodes = rest[f.at[8]:]
		eachOctant(bounds, func(o, lo, hi int) {
			window := rest[f.at[o]:f.at[o+1]]
			n.Children[o] = buildKeyedRange(ps[lo:hi], ks[lo:hi], box.Octant(o), key.Child(o), leafCap, &window, f.sub[o])
		})
	} else {
		for o := 0; o < 8; o++ {
			if lo, hi := bounds[o], bounds[o+1]; lo < hi {
				n.Children[o] = buildKeyedRange(ps[lo:hi], ks[lo:hi], box.Octant(o), key.Child(o), leafCap, nodes, nil)
			}
		}
	}
	for _, child := range n.Children {
		if child != nil {
			n.Mass += child.Mass
			n.COM = n.COM.Add(child.COM.Scale(child.Mass))
		}
	}
	if n.Mass > 0 {
		n.COM = n.COM.Scale(1 / n.Mass)
	}
	return n
}

// MaximalCells emits, in Morton order, the maximal cells of the keyed
// subtree under n whose key range lies inside [lo, hi) — a processor's
// branch nodes under the DPDA decomposition, whose zones are key ranges.
// A leaf that straddles a zone boundary is pushed down ("we artificially
// force the particles down", Section 3.1): it is split by key octant into
// fresh subtrees, not linked into the tree, until the fragments are
// contained. A MaxDepth leaf covers a single key and cannot be split, so
// it is emitted whole: particles whose keys lie outside [lo, hi) — there
// are none when the caller holds exactly its zone, and zone bounds never
// separate equal keys (partition.EqualCountZones) — come out in such
// single-key cells instead of being dropped. rootBox is the root cell the
// keys are quantized against.
func MaximalCells(n *Node, lo, hi uint64, rootBox vec.Box, leafCap int, emit func(*Node)) {
	if n == nil || n.Count == 0 {
		return
	}
	if cLo, cHi := n.Key.Range(); cLo >= lo && cHi <= hi {
		emit(n)
		return
	}
	if !n.IsLeaf() {
		for _, c := range n.Children {
			MaximalCells(c, lo, hi, rootBox, leafCap, emit)
		}
		return
	}
	if int(n.Key.Level) >= MaxDepth {
		emit(n)
		return
	}
	ps, ks := SortByKey(n.Particles, rootBox)
	level := int(n.Key.Level)
	bounds := octantBounds(ks, level)
	count := 0
	for o := 0; o < 8; o++ {
		if clo, chi := bounds[o], bounds[o+1]; clo < chi {
			c, _ := countKeyedRange(ks[clo:chi], level+1, leafCap)
			count += c
		}
	}
	nodes := newNodes(count)
	for o := 0; o < 8; o++ {
		if clo, chi := bounds[o], bounds[o+1]; clo < chi {
			child := buildKeyedRange(ps[clo:chi], ks[clo:chi], n.Box.Octant(o), n.Key.Child(o), leafCap, &nodes, nil)
			MaximalCells(child, lo, hi, rootBox, leafCap, emit)
		}
	}
}

// BuildExpansions populates every node's multipole expansion of the given
// degree about its centre of mass: P2M at the leaves, M2M (exact
// translation) on the way up. After this call the tree can serve
// potential-mode traversals.
func (t *Tree) BuildExpansions(degree int) {
	t.Degree = degree
	buildExp(t.Root, degree)
}

func buildExp(n *Node, degree int) {
	if n == nil || n.Count == 0 {
		return
	}
	e := phys.NewExpansion(degree, n.COM)
	if n.IsLeaf() {
		for i := range n.Particles {
			e.AddParticle(n.Particles[i].Mass, n.Particles[i].Pos)
		}
	} else {
		for _, c := range n.Children {
			if c == nil || c.Count == 0 {
				continue
			}
			buildExp(c, degree)
			e.Add(c.Exp.TranslateTo(n.COM))
		}
	}
	n.Exp = e
}

// ResetLoads zeroes the interaction counters throughout the tree.
func (t *Tree) ResetLoads() { resetLoad(t.Root) }

func resetLoad(n *Node) {
	if n == nil {
		return
	}
	n.Load = 0
	for _, c := range n.Children {
		resetLoad(c)
	}
}

// SumLoads propagates leaf/interior interaction counts up the tree so
// that each node's Load is the total for its subtree, and returns the
// root total W (Section 3.3.3: "After the force computation phase, this
// variable is summed up along the tree").
func (t *Tree) SumLoads() int64 { return sumLoad(t.Root) }

func sumLoad(n *Node) int64 {
	if n == nil {
		return 0
	}
	for _, c := range n.Children {
		n.Load += sumLoad(c)
	}
	return n.Load
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
// node n observed from pos: the ratio of the box dimension to the
// distance from the point to the node's centre of mass is below α.
func Accepts(n *Node, pos vec.V3, alpha float64) bool {
	d := pos.Dist(n.COM)
	if d == 0 {
		return false
	}
	return n.Box.LongestSide()/d < alpha
}

// AccelAt computes the Barnes–Hut monopole approximation of the
// gravitational acceleration at pos. selfID excludes that particle from
// near-field sums (pass a negative value for field points). Interaction
// counts are recorded into stats (which may be nil) and into the per-node
// Load counters.
func (t *Tree) AccelAt(pos vec.V3, selfID int, alpha, eps float64, stats *Stats) vec.V3 {
	var s Stats
	a := accelNode(t.Root, pos, selfID, alpha, eps, &s, nil)
	if stats != nil {
		stats.Add(s)
	}
	return a
}

// accelNode descends the tree accumulating the acceleration at pos. Load
// counts go into loads (indexed by loadIdx) when non-nil — the per-worker
// shard of a parallel traversal — and directly into n.Load otherwise.
func accelNode(n *Node, pos vec.V3, selfID int, alpha, eps float64, s *Stats, loads []int64) vec.V3 {
	if n == nil || n.Count == 0 {
		return vec.V3{}
	}
	if n.IsLeaf() {
		var a vec.V3
		for i := range n.Particles {
			p := &n.Particles[i]
			if p.ID == selfID {
				continue
			}
			a = a.Add(phys.Accel(pos, p.Pos, p.Mass, eps))
			s.PP++
		}
		if loads != nil {
			loads[n.loadIdx] += int64(len(n.Particles))
		} else {
			n.Load += int64(len(n.Particles))
		}
		return a
	}
	s.MACTests++
	if Accepts(n, pos, alpha) {
		s.PC++
		if loads != nil {
			loads[n.loadIdx]++
		} else {
			n.Load++
		}
		return phys.Accel(pos, n.COM, n.Mass, eps)
	}
	var a vec.V3
	for _, c := range n.Children {
		if c != nil {
			a = a.Add(accelNode(c, pos, selfID, alpha, eps, s, loads))
		}
	}
	return a
}

// PotentialAt computes the Barnes–Hut potential at pos using the nodes'
// degree-k multipole expansions (BuildExpansions must have run). selfID
// excludes that particle from near-field sums.
func (t *Tree) PotentialAt(pos vec.V3, selfID int, alpha float64, stats *Stats) float64 {
	if t.Degree < 0 {
		panic("tree: PotentialAt requires BuildExpansions")
	}
	var s Stats
	phi := potNode(t.Root, pos, selfID, alpha, &s, nil)
	if stats != nil {
		stats.Add(s)
	}
	return phi
}

// potNode mirrors accelNode for potential-mode traversals; see there for
// the loads-shard convention.
func potNode(n *Node, pos vec.V3, selfID int, alpha float64, s *Stats, loads []int64) float64 {
	if n == nil || n.Count == 0 {
		return 0
	}
	if n.IsLeaf() {
		var phi float64
		for i := range n.Particles {
			p := &n.Particles[i]
			if p.ID == selfID {
				continue
			}
			phi += phys.Potential(pos, p.Pos, p.Mass, 0)
			s.PP++
		}
		if loads != nil {
			loads[n.loadIdx] += int64(len(n.Particles))
		} else {
			n.Load += int64(len(n.Particles))
		}
		return phi
	}
	s.MACTests++
	if Accepts(n, pos, alpha) {
		s.PC++
		if loads != nil {
			loads[n.loadIdx]++
		} else {
			n.Load++
		}
		return n.Exp.EvalPotential(pos)
	}
	var phi float64
	for _, c := range n.Children {
		if c != nil {
			phi += potNode(c, pos, selfID, alpha, s, loads)
		}
	}
	return phi
}

// AccelFrom computes the monopole-approximation acceleration at pos due
// to the subtree rooted at n, applying the MAC at every internal node
// (including n itself). Used by the parallel engines, where a processor
// serves a shipped particle against the subtree under one of its branch
// nodes.
func AccelFrom(n *Node, pos vec.V3, selfID int, alpha, eps float64, stats *Stats) vec.V3 {
	var s Stats
	a := accelNode(n, pos, selfID, alpha, eps, &s, nil)
	if stats != nil {
		stats.Add(s)
	}
	return a
}

// PotentialFrom is AccelFrom for degree-k potential traversals; the
// subtree's expansions must have been built.
func PotentialFrom(n *Node, pos vec.V3, selfID int, alpha float64, stats *Stats) float64 {
	var s Stats
	phi := potNode(n, pos, selfID, alpha, &s, nil)
	if stats != nil {
		stats.Add(s)
	}
	return phi
}

// SumLoadsNode aggregates interaction counts up the subtree rooted at n
// (destructively, like Tree.SumLoads) and returns the subtree total.
func SumLoadsNode(n *Node) int64 { return sumLoad(n) }

// BuildNodeExpansions populates multipole expansions of the given degree
// for the subtree rooted at n.
func BuildNodeExpansions(n *Node, degree int) { buildExp(n, degree) }

// ParticleLevels returns the sum over all nodes of their particle counts,
// i.e. the total number of particle–level hops performed while building
// the subtree — the unit of the tree-construction cost model.
func ParticleLevels(n *Node) int64 {
	if n == nil {
		return 0
	}
	total := int64(n.Count)
	for _, c := range n.Children {
		total += ParticleLevels(c)
	}
	return total
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func CountNodes(n *Node) int { return countNodes(n) }

// indexLoads assigns each node its depth-first position and returns the
// nodes in that order, so a parallel traversal can accumulate Load into
// flat per-worker shards and merge them back after the workers join.
func (t *Tree) indexLoads() []*Node {
	nodes := make([]*Node, 0, 256)
	t.Walk(func(n *Node) bool {
		n.loadIdx = int32(len(nodes))
		nodes = append(nodes, n)
		return true
	})
	return nodes
}

// AccelAll computes accelerations for every particle in ps against the
// tree, returning one acceleration per particle and the combined stats.
//
// The loop runs across all cores, but the results — accelerations, Stats,
// and per-node Load counters — are bit-identical to the sequential loop:
// each particle's traversal is independent, and the integer counters are
// accumulated in per-worker shards merged exactly after the join.
func (t *Tree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	workers := compute.Workers(len(ps))
	if workers <= 1 {
		var s Stats
		for i := range ps {
			out[i] = t.AccelAt(ps[i].Pos, ps[i].ID, alpha, eps, &s)
		}
		return out, s
	}
	nodes := t.indexLoads()
	shardStats := make([]Stats, workers)
	shardLoads := make([][]int64, workers)
	compute.ParallelBlocks(len(ps), func(w, lo, hi int) {
		loads := make([]int64, len(nodes))
		s := &shardStats[w]
		for i := lo; i < hi; i++ {
			out[i] = accelNode(t.Root, ps[i].Pos, ps[i].ID, alpha, eps, s, loads)
		}
		shardLoads[w] = loads
	})
	var s Stats
	for w := 0; w < workers; w++ {
		s.Add(shardStats[w])
		for j, v := range shardLoads[w] {
			if v != 0 {
				nodes[j].Load += v
			}
		}
	}
	return out, s
}

// PotentialAll computes potentials for every particle in ps. Like
// AccelAll it runs multi-core with results bit-identical to the
// sequential loop.
func (t *Tree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	out := make([]float64, len(ps))
	workers := compute.Workers(len(ps))
	if workers <= 1 {
		var s Stats
		for i := range ps {
			out[i] = t.PotentialAt(ps[i].Pos, ps[i].ID, alpha, &s)
		}
		return out, s
	}
	if t.Degree < 0 {
		panic("tree: PotentialAll requires BuildExpansions")
	}
	nodes := t.indexLoads()
	shardStats := make([]Stats, workers)
	shardLoads := make([][]int64, workers)
	compute.ParallelBlocks(len(ps), func(w, lo, hi int) {
		loads := make([]int64, len(nodes))
		s := &shardStats[w]
		for i := lo; i < hi; i++ {
			out[i] = potNode(t.Root, ps[i].Pos, ps[i].ID, alpha, s, loads)
		}
		shardLoads[w] = loads
	})
	var s Stats
	for w := 0; w < workers; w++ {
		s.Add(shardStats[w])
		for j, v := range shardLoads[w] {
			if v != 0 {
				nodes[j].Load += v
			}
		}
	}
	return out, s
}

// WalkLeaves visits the leaves in Morton (in-order, left-to-right) order,
// the traversal the DPDA costzones partitioning uses. The visitor returns
// false to stop the walk early.
func (t *Tree) WalkLeaves(visit func(*Node) bool) { walkLeaves(t.Root, visit) }

func walkLeaves(n *Node, visit func(*Node) bool) bool {
	if n == nil || n.Count == 0 {
		return true
	}
	if n.IsLeaf() {
		return visit(n)
	}
	for _, c := range n.Children {
		if !walkLeaves(c, visit) {
			return false
		}
	}
	return true
}

// Walk visits every node in depth-first Morton order.
func (t *Tree) Walk(visit func(*Node) bool) { walkAll(t.Root, visit) }

func walkAll(n *Node, visit func(*Node) bool) bool {
	if n == nil {
		return true
	}
	if !visit(n) {
		return false
	}
	for _, c := range n.Children {
		if !walkAll(c, visit) {
			return false
		}
	}
	return true
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil {
		return -1
	}
	d := 0
	for _, c := range n.Children {
		if cd := depth(c) + 1; cd > d {
			d = cd
		}
	}
	return d
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// Validate checks structural invariants: particle counts and masses
// aggregate correctly, particles lie in their leaf boxes, and child cells
// match their keys. It returns the first violation found.
func (t *Tree) Validate() error { return validate(t.Root) }

func validate(n *Node) error {
	if n == nil {
		return nil
	}
	if n.IsLeaf() {
		if len(n.Particles) != n.Count {
			return fmt.Errorf("tree: leaf %v count %d but %d particles", n.Key, n.Count, len(n.Particles))
		}
		for i := range n.Particles {
			if !n.Box.Contains(n.Particles[i].Pos) {
				return fmt.Errorf("tree: particle %d outside leaf %v", n.Particles[i].ID, n.Key)
			}
		}
		return nil
	}
	count := 0
	mass := 0.0
	for o, c := range n.Children {
		if c == nil {
			continue
		}
		if c.Key != n.Key.Child(o) {
			return fmt.Errorf("tree: child %d of %v has key %v", o, n.Key, c.Key)
		}
		if err := validate(c); err != nil {
			return err
		}
		count += c.Count
		mass += c.Mass
	}
	if count != n.Count {
		return fmt.Errorf("tree: node %v count %d but children sum %d", n.Key, n.Count, count)
	}
	if math.Abs(mass-n.Mass) > 1e-9*(1+math.Abs(n.Mass)) {
		return fmt.Errorf("tree: node %v mass %v but children sum %v", n.Key, n.Mass, mass)
	}
	return nil
}
