package tree

import (
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/vec"
)

// FlatTree is a structure-of-arrays linearization of a Tree in DFS
// (Morton) order: one column per per-node quantity plus skip pointers,
// and the leaf particles transposed into columns in leaf order (see
// Cols). Traversals walk contiguous arrays instead of chasing ~200-byte
// Node records, and the box side length is hoisted out of every MAC
// test.
//
// The kernels produce results bit-identical to the pointer traversals
// (Tree.AccelAll / Tree.PotentialAll): each particle's interactions
// arrive in exactly the DFS visit order and opened subtrees accumulate
// into nested partial sums that replay the recursion's hierarchical
// summation order, because floating-point addition is not associative —
// a flat left-to-right accumulation over the same contributions would
// round differently.
//
// A FlatTree snapshots the Tree at Flatten time; rebuild or refresh the
// tree and Flatten again before the next sweep. Load counters are
// written back to the underlying *Node records. At most one sweep may
// run at a time (matching the Tree traversals, which share Load state).
type FlatTree struct {
	t     *Tree
	nodes []*Node
	exps  []*phys.Expansion
	sw    Sweep // the columns, and the force sweep's reusable state

	scratch []flatScratch // per-worker potential-sweep state, reused across sweeps
	loads   []int64       // merged per-node Load charges of one force sweep
}

// listEntry is one step of a gathered interaction list. b >= 0 encodes a
// leaf particle range cols[a:b); negative b values are the marker kinds
// below with a as the node index.
type listEntry struct{ a, b int32 }

const (
	entryPC   int32 = -1 // particle–cluster interaction with node a
	entryPush int32 = -2 // open node a: start a nested partial sum
	entryPop  int32 = -3 // close the innermost open node
)

// Root dispositions returned by gather; the root's value is the
// traversal result itself, never added into an enclosing accumulator.
const (
	rootOpen int8 = iota
	rootLeaf
	rootPC
)

type flatScratch struct {
	loads []int64
	list  []listEntry
	ends  []int32
}

// Flatten linearizes t, reusing reuse's buffers when non-nil (pass the
// previous step's FlatTree to amortize the column allocations).
func Flatten(t *Tree, reuse *FlatTree) *FlatTree {
	f := reuse
	if f == nil {
		f = &FlatTree{}
	}
	f.t = t
	f.nodes = f.nodes[:0]
	f.exps = f.exps[:0]
	f.sw.Reset()
	f.flatten(t.Root)
	return f
}

// Tree returns the tree this FlatTree linearizes.
func (f *FlatTree) Tree() *Tree { return f.t }

// NumNodes returns the number of linearized nodes.
func (f *FlatTree) NumNodes() int { return len(f.nodes) }

func (f *FlatTree) flatten(n *Node) {
	f.nodes = append(f.nodes, n)
	f.exps = append(f.exps, n.Exp)
	if n.IsLeaf() {
		lo, hi := f.sw.AddParticles(n.Particles)
		f.sw.AddNode(KindLeaf, n.COM, n.Mass, n.Box.LongestSide(), lo, hi)
		return
	}
	idx := f.sw.AddNode(KindInternal, n.COM, n.Mass, n.Box.LongestSide(), -1, -1)
	for _, c := range n.Children {
		if c != nil {
			f.flatten(c)
		}
	}
	f.sw.Skip[idx] = int32(len(f.nodes))
}

// accepts is Accepts over the flat columns — the same vec arithmetic on
// the same values, with the box side precomputed.
func (f *FlatTree) accepts(i int32, pos vec.V3, alpha float64) bool {
	d := pos.Dist(vec.V3{X: f.sw.ComX[i], Y: f.sw.ComY[i], Z: f.sw.ComZ[i]})
	if d == 0 {
		return false
	}
	return f.sw.Side[i]/d < alpha
}

// gather walks the flat tree once for pos, recording the interaction
// list (leaf ranges, accepted clusters, and subtree open/close markers)
// in DFS visit order, and charging MAC tests, PC counts, and per-node
// loads exactly as the pointer traversal does. The list is left in
// sc.list; the returned kind tells the evaluator how to treat the root.
func (f *FlatTree) gather(sc *flatScratch, pos vec.V3, alpha float64, s *Stats) int8 {
	list := sc.list[:0]
	loads := sc.loads
	if lo := f.sw.Lo[0]; lo >= 0 {
		hi := f.sw.Hi[0]
		loads[0] += int64(hi - lo)
		sc.list = append(list, listEntry{lo, hi})
		return rootLeaf
	}
	s.MACTests++
	if f.accepts(0, pos, alpha) {
		s.PC++
		loads[0]++
		sc.list = append(list, listEntry{0, entryPC})
		return rootPC
	}
	ends := sc.ends[:0]
	n := int32(len(f.nodes))
	for i := int32(1); i < n; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			list = append(list, listEntry{0, entryPop})
		}
		if lo := f.sw.Lo[i]; lo >= 0 {
			hi := f.sw.Hi[i]
			loads[i] += int64(hi - lo)
			list = append(list, listEntry{lo, hi})
			i = f.sw.Skip[i]
			continue
		}
		s.MACTests++
		if f.accepts(i, pos, alpha) {
			s.PC++
			loads[i]++
			list = append(list, listEntry{i, entryPC})
			i = f.sw.Skip[i]
			continue
		}
		list = append(list, listEntry{i, entryPush})
		ends = append(ends, f.sw.Skip[i])
		i++
	}
	for range ends {
		list = append(list, listEntry{0, entryPop})
	}
	sc.list, sc.ends = list, ends[:0]
	return rootOpen
}

// leafPot mirrors leafAccel for potentials (near-field softening is 0,
// as in the pointer traversal).
func (f *FlatTree) leafPot(lo, hi int32, pos vec.V3, self int32, s *Stats) float64 {
	var phi float64
	ids, px, py, pz, ms := f.sw.ID, f.sw.PX, f.sw.PY, f.sw.PZ, f.sw.PM
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		phi += phys.Potential(pos, vec.V3{X: px[j], Y: py[j], Z: pz[j]}, ms[j], 0)
		s.PP++
	}
	return phi
}

// evalPot is evalAccel for potential mode: accepted clusters evaluate
// their multipole expansion.
func (f *FlatTree) evalPot(sc *flatScratch, kind int8, pos vec.V3, selfID int, s *Stats) float64 {
	self := int32(selfID)
	if kind == rootPC {
		return f.exps[sc.list[0].a].EvalPotential(pos)
	}
	if kind == rootLeaf {
		e := sc.list[0]
		return f.leafPot(e.a, e.b, pos, self, s)
	}
	var top float64
	var stack [MaxDepth + 2]float64
	depth := 0
	for _, e := range sc.list {
		switch {
		case e.b >= 0:
			top += f.leafPot(e.a, e.b, pos, self, s)
		case e.b == entryPC:
			top += f.exps[e.a].EvalPotential(pos)
		case e.b == entryPush:
			stack[depth] = top
			depth++
			top = 0
		default:
			depth--
			top = stack[depth] + top
		}
	}
	return top
}

// ensureWorkers sizes the per-worker scratch pool.
func (f *FlatTree) ensureWorkers(w int) {
	for len(f.scratch) < w {
		f.scratch = append(f.scratch, flatScratch{})
	}
}

// AccelAll computes accelerations for every particle against the flat
// tree: a thin driver over the packet Sweep. Results — accelerations,
// Stats, and per-node Load counters — are bit-identical to Tree.AccelAll
// on the tree this FlatTree linearizes.
func (f *FlatTree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	f.loads = append(f.loads[:0], make([]int64, len(f.nodes))...)
	s := f.sw.ForceAll(ps, 0, alpha, eps, 0, out, nil, f.loads)
	for j, v := range f.loads {
		if v != 0 {
			f.nodes[j].Load += v
		}
	}
	return out, s
}

// PotentialAll computes potentials for every particle against the flat
// tree, bit-identical to Tree.PotentialAll. The tree's expansions must
// have been built before Flatten.
func (f *FlatTree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	if f.t.Degree < 0 {
		panic("tree: FlatTree.PotentialAll requires BuildExpansions before Flatten")
	}
	out := make([]float64, len(ps))
	if len(ps) == 0 {
		return out, Stats{}
	}
	workers := compute.Workers(len(ps))
	f.ensureWorkers(workers)
	shardStats := make([]Stats, workers)
	compute.ParallelBlocks(len(ps), func(w, lo, hi int) {
		sc := &f.scratch[w]
		sc.loads = append(sc.loads[:0], make([]int64, len(f.nodes))...)
		s := &shardStats[w]
		for i := lo; i < hi; i++ {
			kind := f.gather(sc, ps[i].Pos, alpha, s)
			out[i] = f.evalPot(sc, kind, ps[i].Pos, ps[i].ID, s)
		}
	})
	var s Stats
	for w := 0; w < workers; w++ {
		s.Add(shardStats[w])
		for j, v := range f.scratch[w].loads {
			if v != 0 {
				f.nodes[j].Load += v
			}
		}
	}
	return out, s
}
