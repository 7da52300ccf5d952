package tree

import (
	"repro/internal/dist"
	"repro/internal/vec"
)

// AccelSweep computes accelerations for every particle in ps against the
// tree by the packet sweep, the one kernel every production traversal
// runs. A Tree already is the structure-of-arrays form the sweep walks —
// node columns in DFS order with skip pointers and the box side hoisted
// out of every MAC test, leaf particles transposed into columns — so
// nothing is copied first.
//
// Results — accelerations, Stats, and per-node Load counters — are
// bit-identical to the recursive Tree.AccelAll: each particle's
// interactions arrive in exactly the DFS visit order and opened subtrees
// accumulate into nested partial sums that replay the recursion's
// hierarchical summation order, because floating-point addition is not
// associative — a flat left-to-right accumulation over the same
// contributions would round differently. At most one sweep may run on a
// tree at a time.
func (t *Tree) AccelSweep(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	out := make([]vec.V3, len(ps))
	s := t.sweep().ForceAll(ps, 0, alpha, eps, 0, out, nil)
	t.release()
	return out, s
}

// PotentialSweep is AccelSweep for potentials, bit-identical to
// Tree.PotentialAll. The tree's expansions must have been built.
func (t *Tree) PotentialSweep(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	out := make([]float64, len(ps))
	s := t.sweep().PotentialAll(ps, 0, alpha, 0, out, nil)
	t.release()
	return out, s
}

// sweep points the tree's packet sweep at its columns, its Load column
// taking the charges; the caller drops them again with release when the
// sweep is done, so the sweep never pins columns a later build gives up.
func (t *Tree) sweep() *Sweep {
	t.sw.Cols = t.Cols
	t.sw.Loads = append(t.sw.Loads[:0], t.Load)
	return &t.sw
}

func (t *Tree) release() {
	t.sw.Cols = Cols{}
	clear(t.sw.Loads)
}

// FlatTree is the packet sweep's view of a Tree: it holds nothing but the
// tree, whose columns the sweep reads in place.
type FlatTree struct {
	t *Tree
}

// Flatten returns t as a FlatTree, reusing reuse when non-nil. It copies
// nothing.
func Flatten(t *Tree, reuse *FlatTree) *FlatTree {
	f := reuse
	if f == nil {
		f = &FlatTree{}
	}
	f.t = t
	return f
}

// AccelAll is Tree.AccelSweep.
func (f *FlatTree) AccelAll(ps []dist.Particle, alpha, eps float64) ([]vec.V3, Stats) {
	return f.t.AccelSweep(ps, alpha, eps)
}

// PotentialAll is Tree.PotentialSweep.
func (f *FlatTree) PotentialAll(ps []dist.Particle, alpha float64) ([]float64, Stats) {
	return f.t.PotentialSweep(ps, alpha)
}
