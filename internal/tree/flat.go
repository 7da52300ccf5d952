package tree

import (
	"repro/internal/dist"
	"repro/internal/vec"
)

// FlatTree is a structure-of-arrays linearization of a Tree in DFS
// (Morton) order: one column per per-node quantity plus skip pointers,
// and the leaf particles transposed into columns in leaf order (see
// Cols). Traversals walk contiguous arrays instead of chasing ~200-byte
// Node records, and the box side length is hoisted out of every MAC
// test.
//
// AccelAll and PotentialAll are thin drivers over the one packet Sweep and
// produce results bit-identical to the pointer traversals (Tree.AccelAll /
// Tree.PotentialAll): each particle's interactions arrive in exactly the
// DFS visit order and opened subtrees accumulate into nested partial sums
// that replay the recursion's hierarchical summation order, because
// floating-point addition is not associative — a flat left-to-right
// accumulation over the same contributions would round differently.
//
// A FlatTree snapshots the Tree at Flatten time; rebuild or refresh the
// tree and Flatten again before the next sweep. Load counters are
// written back to the underlying *Node records. At most one sweep may
// run at a time (matching the Tree traversals, which share Load state).
type FlatTree struct {
	t     *Tree
	nodes []*Node
	sw    Sweep   // the columns, and the sweep's reusable state
	loads []int64 // merged per-node Load charges of one sweep
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
	if n.IsLeaf() {
		lo, hi := f.sw.AddParticles(n.Particles)
		f.sw.AddNode(KindLeaf, n.COM, n.Mass, n.Box.LongestSide(), n.Exp, lo, hi)
		return
	}
	idx := f.sw.AddNode(KindInternal, n.COM, n.Mass, n.Box.LongestSide(), n.Exp, -1, -1)
	for _, c := range n.Children {
		if c != nil {
			f.flatten(c)
		}
	}
	f.sw.Skip[idx] = int32(len(f.nodes))
}

// AccelAll computes accelerations for every particle against the flat
// tree. Results — accelerations, Stats, and per-node Load counters — are
// bit-identical to Tree.AccelAll on the tree this FlatTree linearizes.
func (f *FlatTree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	s := f.sw.ForceAll(ps, 0, alpha, eps, 0, out, nil, f.zeroLoads())
	f.applyLoads()
	return out, s
}

// PotentialAll computes potentials for every particle against the flat
// tree, bit-identical to Tree.PotentialAll. The tree's expansions must
// have been built before Flatten.
func (f *FlatTree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	out := make([]float64, len(ps))
	s := f.sw.PotentialAll(ps, 0, alpha, 0, out, nil, f.zeroLoads())
	f.applyLoads()
	return out, s
}

func (f *FlatTree) zeroLoads() []int64 {
	f.loads = append(f.loads[:0], make([]int64, len(f.nodes))...)
	return f.loads
}

// applyLoads adds the sweep's merged Load charges to the tree's nodes.
func (f *FlatTree) applyLoads() {
	for j, v := range f.loads {
		if v != 0 {
			f.nodes[j].Load += v
		}
	}
}
