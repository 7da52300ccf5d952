package let

import (
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Main is the main region of a locally essential tree: the replicated top
// tree linearized for tree.Sweep — top nodes, an empty leaf for each empty
// child, and one node per branch cell whose Lo is its branch ordinal. It
// holds nothing of any rank's, so one Main serves every rank of a process:
// each rank's Flat reads its columns in place and never writes them.
type Main struct {
	c       tree.Cols
	graftLo []int32 // per branch ordinal, and one past the last: its owners' slots in a Flat's grafts
}

// AddTop appends a replicated top node; close with CloseInternal after
// its children.
func (m *Main) AddTop(com vec.V3, mass, side float64, exp *phys.Expansion) int32 {
	return tree.AppendNode(&m.c, tree.KindTop, com, mass, side, exp, -1, -1)
}

// AddBranch appends a branch cell with the given number of owners and
// returns its branch ordinal. A rank that owns the cell sweeps its own
// subtree there (Flat.SetOwn); for any other rank the cell is a summary
// that defers its grafts when opened — a leaf cell (leafCell) always,
// without a MAC test.
func (m *Main) AddBranch(leafCell bool, com vec.V3, mass, side float64, exp *phys.Expansion, owners int) int32 {
	if len(m.graftLo) == 0 {
		m.graftLo = append(m.graftLo, 0)
	}
	k := tree.KindBranch
	if leafCell {
		k = tree.KindBranchLeaf
	}
	b := int32(len(m.graftLo) - 1)
	tree.AppendNode(&m.c, k, com, mass, side, exp, b, -1)
	m.graftLo = append(m.graftLo, m.graftLo[b]+int32(owners))
	return b
}

// AddZero appends an empty leaf standing in for a non-nil zero-count
// child: the traversal folds an exact zero vector and charges nothing,
// replaying the recursion's early return for such nodes.
func (m *Main) AddZero() { tree.AppendNode(&m.c, tree.KindLeaf, vec.V3{}, 0, 0, nil, 0, 0) }

// CloseInternal patches an internal node's skip pointer past its
// completed subtree.
func (m *Main) CloseInternal(idx int32) { m.c.Skip[idx] = int32(len(m.c.Kind)) }

// NumNodes returns the region's node count.
func (m *Main) NumNodes() int { return len(m.c.Kind) }

// Branch returns the branch ordinal of branch node idx (as Packet.Deferred
// reports it).
func (m *Main) Branch(idx int32) int32 { return m.c.Lo[idx] }

// NumBranches returns the number of branch cells.
func (m *Main) NumBranches() int { return max(len(m.graftLo)-1, 0) }

// NumParticles returns how many particles the region's own columns hold:
// none, since leaves live in sections and in the ranks' trees.
func (m *Main) NumParticles() int { return len(m.c.ID) }

// Flat is one rank's locally essential tree for one step: a table of
// references that tree.Sweep reads in place. The main region is the
// process's Main; under a branch cell of its own the rank's sweep walks its
// own tree, charging Load straight into the tree's Load column; under any
// other it defers, and the sections grafted for the cell are swept and
// folded in defer order — exactly the slot order function shipping folds
// its replies in. Force mode and potential mode both run the one sweep.
//
// Top and branch summaries have no owner-side tree node, so accepted
// interactions there charge the traversing particle's extra-load account
// (as function shipping does); section nodes charge the Flat's per-section
// Load counters, which flow back to the owner as deltas.
type Flat struct {
	s        tree.Sweep
	main     *Main
	own      *tree.Tree
	sections []SecMeta
	loads    []int64 // section Load charges, section si's from sections[si].off
	mainLds  []int64 // the main region's charges: zeros from its empty leaves
}

// SecMeta locates one grafted section.
type SecMeta struct {
	Owner int
	Key   uint64
	sec   *Section
	off   int32
}

// Reset readies the Flat for a step over main, with own (nil for none)
// the rank's tree: every branch cell starts as another rank's, nothing
// grafted under it.
func (f *Flat) Reset(main *Main, own *tree.Tree) {
	f.main, f.own = main, own
	f.s.Cols = main.c
	f.s.Own = nil
	if own != nil {
		f.s.Own = &own.Cols
	}
	nb, slots := main.NumBranches(), 0
	if nb > 0 {
		slots = int(main.graftLo[nb])
	}
	f.s.OwnRoot = fill(f.s.OwnRoot, nb, -1)
	f.s.GraftLo = main.graftLo
	f.s.Grafts = fill(f.s.Grafts, slots, -1)
	f.s.Secs = f.s.Secs[:0]
	f.sections = f.sections[:0]
}

// fill returns s at length n, every element v.
func fill(s []int32, n int, v int32) []int32 {
	s = append(s[:0], make([]int32, n)...)
	for i := range s {
		s[i] = v
	}
	return s
}

// Main returns the main region the Flat reads.
func (f *Flat) Main() *Main { return f.main }

// SetOwn makes branch ordinal b the rank's own cell, whose subtree is
// node root's of the own tree.
func (f *Flat) SetOwn(b, root int32) { f.s.OwnRoot[b] = root }

// OwnRoot returns the root in the own tree of branch ordinal b's subtree,
// -1 when the cell is another rank's or b names no branch cell: the owner
// side of function shipping resolves a request it read off the wire by it.
func (f *Flat) OwnRoot(b uint64) int32 {
	if b >= uint64(len(f.s.OwnRoot)) {
		return -1
	}
	return f.s.OwnRoot[b]
}

// AddSection grafts sec, which owner shipped for branch ordinal b, the
// slot-th of the cell's owners, and returns its section index. In
// potential mode sec.Exp must hold its expansions. The Flat reads sec in
// place until Release.
func (f *Flat) AddSection(owner int, sec *Section, b int32, slot int) int {
	si := len(f.sections)
	f.s.Grafts[f.s.GraftLo[b]+int32(slot)] = int32(si)
	f.s.Secs = append(f.s.Secs, &sec.Cols)
	f.sections = append(f.sections, SecMeta{Owner: owner, Key: sec.BranchKey, sec: sec})
	return si
}

// NumSections returns the number of grafted sections.
func (f *Flat) NumSections() int { return len(f.sections) }

// Seal finalizes construction, or a section's growth: sizes the
// per-section Load counters, zero, and points every segment's charges at
// their columns.
func (f *Flat) Seal() {
	n := int32(0)
	for i := range f.sections {
		f.sections[i].off = n
		n += int32(f.sections[i].sec.NumNodes())
	}
	f.loads = append(f.loads[:0], make([]int64, n)...)
	f.mainLds = append(f.mainLds[:0], make([]int64, f.main.NumNodes())...)
	var ownLoad []int64
	if f.own != nil {
		ownLoad = f.own.Load
	}
	f.s.Loads = append(f.s.Loads[:0], f.mainLds, ownLoad)
	for _, m := range f.sections {
		f.s.Loads = append(f.s.Loads, f.loads[m.off:m.off+int32(m.sec.NumNodes())])
	}
}

// Release drops every reference the Flat holds — the main region, the
// rank's tree, the sections — so nothing it keeps until the next step
// pins this one's.
func (f *Flat) Release() {
	f.main, f.own = nil, nil
	f.s.Cols, f.s.Own, f.s.GraftLo = tree.Cols{}, nil, nil
	clear(f.s.Secs[:cap(f.s.Secs)])
	f.s.Secs = f.s.Secs[:0]
	clear(f.s.Loads[:cap(f.s.Loads)])
	f.s.Loads = f.s.Loads[:0]
	clear(f.sections[:cap(f.sections)])
	f.sections = f.sections[:0]
}

// ForceAll runs the force traversal for every particle: a thin driver
// over tree.Sweep, whose results are invariant under GOMAXPROCS. out and
// extra (which may be nil) are indexed like ps; extra receives each
// particle's summary-interaction flop charge accumulated with addend exAdd
// per accepted top/branch summary (the function-shipping extra-load
// account). Own-tree Load lands in the tree; section Load stays in the
// Flat for SectionDeltas.
func (f *Flat) ForceAll(ps []dist.Particle, alpha, eps, exAdd float64, out []vec.V3, extra []float64) tree.Stats {
	return f.s.ForceAll(ps, 0, alpha, eps, exAdd, out, extra)
}

// PotentialAll is ForceAll for potential mode (leaf softening 0, accepted
// nodes evaluate the expansions the tree was given).
func (f *Flat) PotentialAll(ps []dist.Particle, alpha, exAdd float64, out []float64, extra []float64) tree.Stats {
	return f.s.PotentialAll(ps, 0, alpha, exAdd, out, extra)
}

// Begin, Defer and Below are the sweep one packet at a time, for function
// and data shipping, which interleave sweeping with messages: Begin fixes
// the mode, Defer sweeps the main region for the first n lanes of p and
// leaves the remote branches they opened to the caller; Below serves
// requests against the subtree at node base of the rank's own tree, and
// BelowSection against section si. All charge Load as ForceAll does.
func (f *Flat) Begin(alpha, eps, exAdd float64, potential bool) {
	f.s.Begin(alpha, eps, exAdd, potential)
}

func (f *Flat) Defer(p *tree.Packet, n int) { f.s.Defer(p, n, 0) }

func (f *Flat) Below(p *tree.Packet, n int, base int32) { f.s.Below(p, n, tree.SegOwn, base) }
func (f *Flat) BelowSection(p *tree.Packet, n, si int)  { f.s.Below(p, n, tree.SecSeg(si), 0) }

// SectionDeltas appends section si's non-zero Load deltas (ordinals are
// section-relative, matching the owner's BuildSection node order) to the
// given slices and returns them.
func (f *Flat) SectionDeltas(si int, nodes []int32, deltas []int64) ([]int32, []int64) {
	m := f.sections[si]
	for i, v := range f.loads[m.off : m.off+int32(m.sec.NumNodes())] {
		if v != 0 {
			nodes = append(nodes, int32(i))
			deltas = append(deltas, v)
		}
	}
	return nodes, deltas
}

// Section returns the metadata of section si.
func (f *Flat) Section(si int) SecMeta { return f.sections[si] }
