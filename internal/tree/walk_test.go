package tree

import (
	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Invariant checks and builders the tree tests share.

// subtree builds the keyed subtree of cell key alone, whose root is node
// 0, as a rank builds one of its clusters; rootBox is the global root
// cell the particle keys are quantized against.
func subtree(particles []dist.Particle, rootBox vec.Box, key keys.CellKey, leafCap int) *Tree {
	t := NewForest(rootBox, leafCap)
	t.AddSubtreeKeyed(particles, key)
	return t
}

// WalkLeaves visits the non-empty leaves in Morton (left-to-right) order.
// The visitor returns false to stop the walk early.
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
