package let

import (
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Flat is the locally essential tree in structure-of-arrays form: the
// grafted peer sections first, then a DFS linearization of the rank's
// replicated tree (top nodes, local subtrees inlined, remote branch
// cells carrying graft references). Force mode and potential mode both run
// tree.Sweep over these columns: remote branches are deferred and their
// sections then swept and folded in defer order — exactly the slot order
// function shipping folds its replies in.
//
// Node kinds are tree.Kind*. Top and branch summaries have no owner-side
// tree node, so accepted interactions there charge the traversing
// particle's extra-load account (as function shipping does); local and
// section nodes charge per-node Load counters, the section ones flowing
// back to the owner as deltas.

// SecMeta locates one grafted section in the flat arrays.
type SecMeta struct {
	Owner int
	Key   uint64
	Base  int32 // the section's root node; its skip pointer ends the section
}

// Flat is rebuilt (or reused via Reset) every step.
type Flat struct {
	// c is the node and particle columns (local and grafted section leaves
	// interleaved in append order) with the sweep's reusable state.
	c        tree.Sweep
	locals   []localSpan // local subtrees, for Load write-back
	sections []SecMeta
	mainRoot int32

	loads []int64 // merged per-node Load charges
}

// localSpan records that nodes [at, at+n) of the Flat are a copy of nodes
// [from, from+n) of t.
type localSpan struct {
	t           *tree.Tree
	at, from, n int32
}

// Reset clears the structure for a new step, keeping capacity.
func (f *Flat) Reset() {
	f.c.Reset()
	f.locals = f.locals[:0]
	f.sections = f.sections[:0]
	f.mainRoot = 0
}

// NumNodes returns the total linearized node count (sections + main).
func (f *Flat) NumNodes() int { return len(f.c.Kind) }

// NumSections returns the number of grafted sections.
func (f *Flat) NumSections() int { return len(f.sections) }

// AddSection grafts a decoded section's node columns; exps carries the
// per-node decoded expansions (nil entries for leaves; nil slice in
// force mode). Returns the section index branch nodes reference.
func (f *Flat) AddSection(owner int, sec *Section, exps []*phys.Expansion) int {
	base := int32(len(f.c.Kind))
	pbase := int32(len(f.c.ID))
	for j := range sec.Kind {
		var k uint8
		lo, hi := int32(-1), int32(-1)
		switch sec.Kind[j] {
		case NodeLeaf:
			k = tree.KindLeaf
			lo, hi = pbase+sec.LeafLo[j], pbase+sec.LeafHi[j]
		case NodeClosed:
			k = tree.KindClosed
		default:
			k = tree.KindInternal
		}
		var e *phys.Expansion
		if exps != nil {
			e = exps[j]
		}
		idx := f.c.AddNode(k, vec.V3{X: sec.ComX[j], Y: sec.ComY[j], Z: sec.ComZ[j]},
			sec.Mass[j], sec.Side[j], e, lo, hi)
		f.c.Skip[idx] = base + sec.Skip[j]
	}
	f.c.ID = append(f.c.ID, sec.PID...)
	f.c.PX = append(f.c.PX, sec.PX...)
	f.c.PY = append(f.c.PY, sec.PY...)
	f.c.PZ = append(f.c.PZ, sec.PZ...)
	f.c.PM = append(f.c.PM, sec.PM...)
	f.sections = append(f.sections, SecMeta{Owner: owner, Key: sec.BranchKey, Base: base})
	return len(f.sections) - 1
}

// BeginMain marks the start of the main sweep region; call after all
// sections are grafted, before flattening the replicated tree.
func (f *Flat) BeginMain() { f.mainRoot = int32(len(f.c.Kind)) }

// AddTop appends a replicated top node; close with CloseInternal after
// its children.
func (f *Flat) AddTop(com vec.V3, mass, side float64, exp *phys.Expansion) int32 {
	return f.c.AddNode(tree.KindTop, com, mass, side, exp, -1, -1)
}

// AddBranch appends a remote branch cell and returns its node index. grafts
// lists the section index per owner, in owner order (-1 when that owner
// shipped nothing: the MAC provably accepts, and the kernels panic if it
// ever rejects); function shipping, which resolves an opened branch by
// message instead, passes none.
func (f *Flat) AddBranch(leafCell bool, com vec.V3, mass, side float64, exp *phys.Expansion, grafts []int32) int32 {
	k := tree.KindBranch
	if leafCell {
		k = tree.KindBranchLeaf
	}
	idx := f.c.AddNode(k, com, mass, side, exp, -1, -1)
	f.c.Lo[idx] = int32(len(f.c.Graft))
	for _, si := range grafts {
		if si >= 0 {
			si = f.sections[si].Base
		}
		f.c.Graft = append(f.c.Graft, si)
	}
	f.c.Hi[idx] = int32(len(f.c.Graft))
	return idx
}

// AddZero appends an empty local leaf standing in for a non-nil
// zero-count child: the traversal folds an exact zero vector and charges
// nothing, replaying the recursion's early return for such nodes.
func (f *Flat) AddZero() {
	lo := int32(len(f.c.ID))
	f.c.AddNode(tree.KindLeaf, vec.V3{}, 0, 0, nil, lo, lo)
}

// CloseInternal patches an internal node's skip pointer past its
// completed subtree.
func (f *Flat) CloseInternal(idx int32) { f.c.Skip[idx] = int32(len(f.c.Kind)) }

// AddLocalSubtree inlines the locally-owned subtree under node i of t — a
// block copy of its node columns [i, Skip[i]) and of its particles, with
// skip pointers and ranges rebased — records the span for Load write-back,
// and returns its root's node index.
func (f *Flat) AddLocalSubtree(t *tree.Tree, i int32) int32 {
	c := &f.c
	at, end := int32(len(c.Kind)), t.Skip[i]
	dn, dp := at-i, int32(len(c.ID))-t.Lo[i]
	c.Kind = append(c.Kind, t.Kind[i:end]...)
	c.ComX = append(c.ComX, t.ComX[i:end]...)
	c.ComY = append(c.ComY, t.ComY[i:end]...)
	c.ComZ = append(c.ComZ, t.ComZ[i:end]...)
	c.Mass = append(c.Mass, t.Mass[i:end]...)
	c.Side = append(c.Side, t.Side[i:end]...)
	c.Exp = append(c.Exp, t.Exp[i:end]...)
	for j := i; j < end; j++ {
		c.Skip = append(c.Skip, t.Skip[j]+dn)
		c.Lo = append(c.Lo, t.Lo[j]+dp)
		c.Hi = append(c.Hi, t.Hi[j]+dp)
	}
	lo, hi := t.Lo[i], t.Hi[i]
	c.ID = append(c.ID, t.ID[lo:hi]...)
	c.PX = append(c.PX, t.PX[lo:hi]...)
	c.PY = append(c.PY, t.PY[lo:hi]...)
	c.PZ = append(c.PZ, t.PZ[lo:hi]...)
	c.PM = append(c.PM, t.PM[lo:hi]...)
	f.locals = append(f.locals, localSpan{t: t, at: at, from: i, n: end - i})
	return at
}

// Seal finalizes construction: sizes the merged Load array.
func (f *Flat) Seal() {
	f.loads = append(f.loads[:0], make([]int64, len(f.c.Kind))...)
}

// ForceAll runs the force traversal for every particle: a thin driver
// over tree.Sweep, whose results are invariant under GOMAXPROCS. out and
// extra (which may be nil) are indexed like ps; extra receives each
// particle's summary-interaction flop charge accumulated with addend exAdd
// per accepted top/branch summary (the function-shipping extra-load
// account). Merged Load counters are left in the Flat for ApplyLocalLoads /
// SectionDeltas.
func (f *Flat) ForceAll(ps []dist.Particle, alpha, eps, exAdd float64, out []vec.V3, extra []float64) tree.Stats {
	return f.c.ForceAll(ps, f.mainRoot, alpha, eps, exAdd, out, extra, f.loads)
}

// PotentialAll is ForceAll for potential mode (leaf softening 0, accepted
// nodes evaluate the expansions the tree was given).
func (f *Flat) PotentialAll(ps []dist.Particle, alpha, exAdd float64, out []float64, extra []float64) tree.Stats {
	return f.c.PotentialAll(ps, f.mainRoot, alpha, exAdd, out, extra, f.loads)
}

// Begin, Defer and Below are the sweep one packet at a time, for function
// shipping, which must interleave sweeping with its message protocol: Begin
// fixes the mode, Defer sweeps the main region for the first n lanes of p
// and leaves the remote branches they opened to the caller; Below is the
// owner-side service of requests against the local branch subtree
// AddLocalSubtree placed at base. Both charge the merged Load counters
// directly.
func (f *Flat) Begin(alpha, eps, exAdd float64, potential bool) {
	f.c.Begin(alpha, eps, exAdd, potential)
}

func (f *Flat) Defer(p *tree.Packet, n int) { f.c.Defer(p, n, f.mainRoot, f.loads) }

func (f *Flat) Below(p *tree.Packet, n int, base int32) { f.c.Below(p, n, base, f.loads) }

// ApplyLocalLoads adds the merged Load counters of local nodes back to
// their tree nodes, then forgets the trees: cleared over the whole backing
// array, the spans cannot keep this step's trees reachable while the Flat
// waits for the next.
func (f *Flat) ApplyLocalLoads() {
	for _, sp := range f.locals {
		for k, v := range f.loads[sp.at : sp.at+sp.n] {
			sp.t.Load[sp.from+int32(k)] += v
		}
	}
	clear(f.locals[:cap(f.locals)])
	f.locals = f.locals[:0]
}

// SectionDeltas appends section si's non-zero Load deltas (ordinals are
// section-relative, matching the owner's BuildSection node order) to the
// given slices and returns them.
func (f *Flat) SectionDeltas(si int, nodes []int32, deltas []int64) ([]int32, []int64) {
	m := f.sections[si]
	for i := m.Base; i < f.c.Skip[m.Base]; i++ {
		if v := f.loads[i]; v != 0 {
			nodes = append(nodes, i-m.Base)
			deltas = append(deltas, v)
		}
	}
	return nodes, deltas
}

// NumSectionDeltas returns how many deltas SectionDeltas appends for
// section si.
func (f *Flat) NumSectionDeltas(si int) int {
	m, n := f.sections[si], 0
	for _, v := range f.loads[m.Base:f.c.Skip[m.Base]] {
		if v != 0 {
			n++
		}
	}
	return n
}

// Section returns the metadata of section si.
func (f *Flat) Section(si int) SecMeta { return f.sections[si] }
