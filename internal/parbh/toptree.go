package parbh

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/keys"
	"repro/internal/let"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// BranchSummary is the record describing one branch node that is
// exchanged in the tree-construction phase: enough to MAC-test the cell
// and compute accepted interactions (mass + centre of mass for force
// mode; the serialized multipole expansion for potential mode), plus the
// owner to ship rejected interactions to.
type BranchSummary struct {
	Key   uint64 // packed keys.CellKey
	Owner int32
	Count int32
	Mass  float64
	COM   vec.V3
	Exp   []float64 // serialized expansion; nil in force mode
}

// Words returns the modelled wire size in 8-byte words.
func (b BranchSummary) Words() int { return 7 + len(b.Exp) }

// summaryOf builds the summary of local subtree root n of t.
func summaryOf(t *tree.Tree, n int32, owner int, withExp bool) BranchSummary {
	s := BranchSummary{
		Key:   t.Key[n],
		Owner: int32(owner),
		Count: int32(t.Count(n)),
		Mass:  t.Mass[n],
		COM:   t.COM(n),
	}
	if withExp && t.Exp[n] != nil {
		s.Exp = t.Exp[n].Floats()
	}
	return s
}

// pnode is a node of the processor-replicated global tree: the top tree
// plus one node per branch cell, which records its owners. One tree serves
// every rank of a process and is immutable once built; a rank finds the
// subtree under a branch cell of its own by the cell's ordinal, in its
// let.Flat's OwnRoot (topFlat.reset).
type pnode struct {
	cell  keys.CellKey
	box   vec.Box
	side  float64 // box.LongestSide(), the MAC's numerator
	mass  float64
	com   vec.V3
	count int
	exp   *phys.Expansion

	children [8]*pnode
	isBranch bool
	owners   []int // owners of this branch (usually one)
	leafCell bool  // branch cell with Count ≤ leafCap: a global-tree leaf
}

func newPnode(cell keys.CellKey, box vec.Box) *pnode {
	return &pnode{cell: cell, box: box, side: box.LongestSide()}
}

// buildTop assembles the replicated global tree from the full set of
// branch summaries and returns it with the modelled flop cost of the merge
// (the redundant computation of the broadcast-based construction).
// degree < 0 disables expansions.
func buildTop(rootBox vec.Box, summaries []BranchSummary, degree, leafCap int) (*pnode, float64, error) {
	var flops float64
	root := newPnode(keys.CellKey{}, rootBox)
	// Insert branch cells, creating intermediate top nodes.
	for _, s := range summaries {
		if s.Count == 0 {
			continue
		}
		ck := keys.CellKeyFromUint64(s.Key)
		n := root
		for lvl := 0; lvl < int(ck.Level); lvl++ {
			oct := int(ck.Key>>(3*uint(int(ck.Level)-lvl-1))) & 7
			if n.isBranch {
				return nil, 0, fmt.Errorf("parbh: branch cell %v is an ancestor of %v", n.cell, ck)
			}
			if n.children[oct] == nil {
				n.children[oct] = newPnode(n.cell.Child(oct), n.box.Octant(oct))
			}
			n = n.children[oct]
		}
		if n.children != ([8]*pnode{}) {
			return nil, 0, fmt.Errorf("parbh: branch cell %v is an ancestor of another branch", ck)
		}
		n.isBranch = true
		n.count += int(s.Count)
		// Merge mass and centre of mass (multiple owners per cell are
		// possible only in degenerate identical-key splits; normally this
		// executes once per cell).
		newMass := n.mass + s.Mass
		if newMass > 0 {
			n.com = n.com.Scale(n.mass / newMass).Add(s.COM.Scale(s.Mass / newMass))
		}
		n.mass = newMass
		n.owners = append(n.owners, int(s.Owner))
		if degree >= 0 && s.Exp != nil {
			e, err := phys.ExpansionFromFloats(degree, s.Exp)
			if err != nil {
				return nil, 0, err
			}
			if n.exp == nil {
				n.exp = e
			} else {
				// Combine at the merged centre of mass.
				at := n.com
				sum := n.exp.TranslateTo(at)
				sum.Add(e.TranslateTo(at))
				n.exp = sum
				flops += 2 * phys.M2MFlops(degree)
			}
		}
	}
	// Upward pass: summarize internal top nodes from their children. This
	// is the redundant computation every processor performs under the
	// broadcast-based construction.
	var up func(n *pnode) error
	up = func(n *pnode) error {
		if n.isBranch {
			n.leafCell = n.count <= leafCap
			return nil
		}
		for _, c := range n.children {
			if c == nil {
				continue
			}
			if err := up(c); err != nil {
				return err
			}
			newMass := n.mass + c.mass
			if newMass > 0 {
				n.com = n.com.Scale(n.mass / newMass).Add(c.com.Scale(c.mass / newMass))
			}
			n.mass = newMass
			n.count += c.count
			flops += phys.NodeCombineFlops
		}
		if degree >= 0 {
			e := phys.NewExpansion(degree, n.com)
			for _, c := range n.children {
				if c == nil || c.count == 0 || c.exp == nil {
					continue
				}
				e.Add(c.exp.TranslateTo(n.com))
				flops += phys.M2MFlops(degree)
			}
			n.exp = e
		}
		return nil
	}
	if err := up(root); err != nil {
		return nil, 0, err
	}
	return root, flops, nil
}

// topFlat is the replicated tree in packet-kernel form: the main region
// every rank's let.Flat reads, built once per process per step beside the
// tree it linearizes and read-only like it. A branch cell is named by its
// ordinal, the order flattenTop meets it in — the same on every rank and
// every process, so a function-shipping request names its branch by it.
// keys holds each ordinal's packed cell key, owners its owners, in the
// range ownerLo[b]:ownerLo[b+1], and ordOf the ordinal of a packed key.
type topFlat struct {
	main    *let.Main
	keys    []uint64
	ownerLo []int32
	owners  []uint16
	ordOf   map[uint64]int32
}

// flattenTop linearizes the replicated tree under root: top nodes, an
// empty leaf for each empty child, one branch node per branch cell.
func flattenTop(root *pnode) *topFlat {
	tf := &topFlat{main: &let.Main{}, ownerLo: []int32{0}, ordOf: make(map[uint64]int32)}
	tf.add(root)
	return tf
}

func (tf *topFlat) add(n *pnode) {
	if n.isBranch {
		key := n.cell.Uint64()
		tf.ordOf[key] = tf.main.AddBranch(n.leafCell, n.com, n.mass, n.side, n.exp, len(n.owners))
		tf.keys = append(tf.keys, key)
		for _, o := range n.owners {
			tf.owners = append(tf.owners, uint16(o))
		}
		tf.ownerLo = append(tf.ownerLo, int32(len(tf.owners)))
		return
	}
	idx := tf.main.AddTop(n.com, n.mass, n.side, n.exp)
	for _, c := range n.children {
		if c == nil {
			continue
		}
		if c.count == 0 {
			// The recursion folds an exact zero for an empty
			// child; an empty leaf replays that (and charges nothing).
			tf.main.AddZero()
			continue
		}
		tf.add(c)
	}
	tf.main.CloseInternal(idx)
}

// ownersOf returns the owners of branch ordinal b, in owner order.
func (tf *topFlat) ownersOf(b int32) []uint16 { return tf.owners[tf.ownerLo[b]:tf.ownerLo[b+1]] }

// slot returns owner's place among the owners of branch ordinal b, -1 if
// it is none of them.
func (tf *topFlat) slot(b int32, owner int) int {
	return slices.Index(tf.ownersOf(b), uint16(owner))
}

// reset readies fl to sweep the main region for st's rank: each branch
// cell of its own resolves to its subtree in st.tree.
func (tf *topFlat) reset(fl *let.Flat, st *localState) {
	fl.Reset(tf.main, st.tree)
	for _, root := range st.branches {
		if b, ok := tf.ordOf[st.tree.Key[root]]; ok && st.tree.Count(root) > 0 {
			fl.SetOwn(b, root)
		}
	}
}

// topCells appends the replicated tree under n to c: the boxes and owners
// LET's essential-set test reads.
func topCells(c *let.Cells, n *pnode) {
	if n.isBranch {
		c.AddBranch(n.box, n.owners)
		return
	}
	idx := c.AddTop(n.box)
	for _, ch := range n.children {
		if ch != nil {
			topCells(c, ch)
		}
	}
	c.Close(idx)
}

// branchLookup resolves a packed branch key to the local subtree root (-1
// for none) — the structure a processor uses to locate the target of an incoming
// function-shipping request (Section 4.2.3). Two implementations exist:
// a hash table and a sorted table with binary search; the paper measured
// both and found the difference masked by computation. The simulated
// machine charges every request its cost; the host resolves a function-
// shipping request by branch ordinal instead, and finds data shipping's
// fetched cells through find.
type branchLookup interface {
	find(key uint64) int32
	// cost returns the modelled flop cost of one lookup.
	cost() float64
}

// hashLookup is the hash-table variant.
type hashLookup map[uint64]int32

func (h hashLookup) find(key uint64) int32 {
	if n, ok := h[key]; ok {
		return n
	}
	return -1
}

func (h hashLookup) cost() float64 { return 6 }

// sortedLookup is the sorted-key-table variant.
type sortedLookup struct {
	keys  []uint64
	nodes []int32
}

func newSortedLookup(m map[uint64]int32) *sortedLookup {
	s := &sortedLookup{}
	for k := range m {
		s.keys = append(s.keys, k)
	}
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	s.nodes = make([]int32, len(s.keys))
	for i, k := range s.keys {
		s.nodes[i] = m[k]
	}
	return s
}

func (s *sortedLookup) find(key uint64) int32 {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	if i < len(s.keys) && s.keys[i] == key {
		return s.nodes[i]
	}
	return -1
}

func (s *sortedLookup) cost() float64 {
	n := len(s.keys)
	c := 2.0
	for n > 1 {
		n >>= 1
		c += 2
	}
	return c
}
