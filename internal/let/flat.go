package let

import (
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Flat is the locally essential tree in structure-of-arrays form: the
// grafted peer sections first, then a DFS linearization of the rank's
// replicated tree (top nodes, local subtrees inlined, remote branch
// cells carrying graft references). Force mode runs tree.Sweep over these
// columns; the potential kernels below sweep the main region with the same
// accumulator-stack discipline as tree.FlatTree. Either way remote
// branches are deferred and their sections then replayed and folded in
// defer order — exactly the slot order function shipping folds its
// replies in.
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

type letScratch struct {
	loads  []int64
	stats  tree.Stats
	facc   []float64
	ends   []int32
	defers []int32
}

// Flat is rebuilt (or reused via Reset) every step.
type Flat struct {
	// c is the node and particle columns (local and grafted section leaves
	// interleaved in append order) with the force sweep's reusable state.
	c        tree.Sweep
	exps     []*phys.Expansion
	nodeRefs []*tree.Node // local nodes for Load write-back
	sections []SecMeta
	mainRoot int32

	loads   []int64
	scratch []letScratch // potential-mode worker shards
}

// Reset clears the structure for a new step, keeping capacity.
func (f *Flat) Reset() {
	f.c.Reset()
	f.exps = f.exps[:0]
	f.nodeRefs = f.nodeRefs[:0]
	f.sections = f.sections[:0]
	f.mainRoot = 0
}

// NumNodes returns the total linearized node count (sections + main).
func (f *Flat) NumNodes() int { return len(f.c.Kind) }

// NumSections returns the number of grafted sections.
func (f *Flat) NumSections() int { return len(f.sections) }

func (f *Flat) push(kind uint8, com vec.V3, mass, side float64, exp *phys.Expansion,
	ref *tree.Node, lo, hi int32) int32 {
	f.exps = append(f.exps, exp)
	f.nodeRefs = append(f.nodeRefs, ref)
	return f.c.AddNode(kind, com, mass, side, lo, hi)
}

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
		idx := f.push(k, vec.V3{X: sec.ComX[j], Y: sec.ComY[j], Z: sec.ComZ[j]},
			sec.Mass[j], sec.Side[j], e, nil, lo, hi)
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
	return f.push(tree.KindTop, com, mass, side, exp, nil, -1, -1)
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
	idx := f.push(k, com, mass, side, exp, nil, -1, -1)
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
// nothing, replaying the pointer walk's early return for such nodes.
func (f *Flat) AddZero() {
	lo := int32(len(f.c.ID))
	f.push(tree.KindLeaf, vec.V3{}, 0, 0, nil, nil, lo, lo)
}

// CloseInternal patches an internal node's skip pointer past its
// completed subtree.
func (f *Flat) CloseInternal(idx int32) { f.c.Skip[idx] = int32(len(f.c.Kind)) }

// AddLocalSubtree inlines a locally-owned subtree, recording node
// references for Load write-back, and returns its root's node index.
func (f *Flat) AddLocalSubtree(n *tree.Node) int32 {
	if n.IsLeaf() {
		lo, hi := f.c.AddParticles(n.Particles)
		return f.push(tree.KindLeaf, vec.V3{}, 0, 0, nil, n, lo, hi)
	}
	idx := f.push(tree.KindInternal, n.COM, n.Mass, n.Box.LongestSide(), n.Exp, n, -1, -1)
	for _, c := range n.Children {
		if c != nil {
			f.AddLocalSubtree(c)
		}
	}
	f.c.Skip[idx] = int32(len(f.c.Kind))
	return idx
}

// Seal finalizes construction: sizes the merged Load array.
func (f *Flat) Seal() {
	f.loads = append(f.loads[:0], make([]int64, len(f.c.Kind))...)
}

// ForceAll runs the force traversal for every particle: a thin driver
// over tree.Sweep, whose results are invariant under GOMAXPROCS. out and
// extra are indexed like ps; extra receives each particle's
// summary-interaction flop charge accumulated with addend exAdd per
// accepted top/branch summary (the function-shipping extra-load account).
// Merged Load counters are left in the Flat for ApplyLocalLoads /
// SectionDeltas.
func (f *Flat) ForceAll(ps []dist.Particle, alpha, eps, exAdd float64, out []vec.V3, extra []float64) tree.Stats {
	return f.c.ForceAll(ps, f.mainRoot, alpha, eps, exAdd, out, extra, f.loads)
}

// Begin, Defer and Below are force mode one packet at a time, for function
// shipping, which must interleave sweeping with its message protocol: Defer
// sweeps the main region for the first n lanes of p and leaves the remote
// branches they opened to the caller; Below is the owner-side service of
// requests against the local branch subtree AddLocalSubtree placed at base.
// Both charge the merged Load counters directly.
func (f *Flat) Begin(alpha, eps, exAdd float64) { f.c.Begin(alpha, eps, exAdd) }

func (f *Flat) Defer(p *tree.Packet, n int) { f.c.Defer(p, n, f.mainRoot, f.loads) }

func (f *Flat) Below(p *tree.Packet, n int, base int32) { f.c.Below(p, n, base, f.loads) }

// PotentialAll is ForceAll for potential mode (leaf softening 0,
// accepted summaries evaluate their multipole expansions), one particle
// at a time, host-parallel via internal/compute with the per-worker
// shards merged in worker order.
func (f *Flat) PotentialAll(ps []dist.Particle, alpha, exAdd float64, out []float64, extra []float64) tree.Stats {
	if len(ps) == 0 {
		return tree.Stats{}
	}
	workers := compute.Workers(len(ps))
	for len(f.scratch) < workers {
		f.scratch = append(f.scratch, letScratch{})
	}
	// Shards are cleared here, not inside the parallel body: when blocks
	// don't divide evenly a trailing worker may get no block at all, and
	// its stale shard must not leak into the worker-order merge.
	for w := range f.scratch[:workers] {
		f.scratch[w].loads = append(f.scratch[w].loads[:0], make([]int64, len(f.c.Kind))...)
		f.scratch[w].stats = tree.Stats{}
	}
	compute.ParallelBlocks(len(ps), func(worker, lo, hi int) {
		sc := &f.scratch[worker]
		for i := lo; i < hi; i++ {
			q := &ps[i]
			sc.defers = sc.defers[:0]
			phi, ex := f.potOne(sc, q.Pos, int32(q.ID), alpha, exAdd)
			for _, base := range sc.defers {
				if base < 0 {
					panic("let: essential section missing for deferred branch")
				}
				phi += f.sectionPot(sc, base, q.Pos, int32(q.ID), alpha)
			}
			out[i] = phi
			extra[i] = ex
		}
	})
	var stats tree.Stats
	for w := range f.scratch[:workers] {
		sc := &f.scratch[w]
		stats.Add(sc.stats)
		for j, v := range sc.loads {
			if v != 0 {
				f.loads[j] += v
			}
		}
	}
	return stats
}

func (f *Flat) leafPot(lo, hi, self int32, pos vec.V3, s *tree.Stats) float64 {
	ids, px, py, pz, ms := f.c.ID, f.c.PX, f.c.PY, f.c.PZ, f.c.PM
	var phi float64
	for j := lo; j < hi; j++ {
		if ids[j] == self {
			continue
		}
		phi += phys.Potential(pos, vec.V3{X: px[j], Y: py[j], Z: pz[j]}, ms[j], 0)
		s.PP++
	}
	return phi
}

func (f *Flat) deferGrafts(sc *letScratch, i int32) {
	sc.defers = append(sc.defers, f.c.Graft[f.c.Lo[i]:f.c.Hi[i]]...)
}

// potOne sweeps the main region for one particle in potential mode. The
// push/fold accumulator stack on reject/close replays the
// function-shipping traversal bit-exactly; deferred branches add an
// explicit zero (not a no-op under signed zeros) and record their graft
// list in sc.defers.
func (f *Flat) potOne(sc *letScratch, pos vec.V3, self int32, alpha, exAdd float64) (float64, float64) {
	loads := sc.loads
	comX, comY, comZ := f.c.ComX, f.c.ComY, f.c.ComZ
	side, skip, kind := f.c.Side, f.c.Skip, f.c.Kind
	var extra float64

	r := f.mainRoot
	switch kind[r] {
	case tree.KindLeaf:
		lo, hi := f.c.Lo[r], f.c.Hi[r]
		loads[r] += int64(hi - lo)
		return f.leafPot(lo, hi, self, pos, &sc.stats), extra
	case tree.KindBranchLeaf:
		f.deferGrafts(sc, r)
		return 0, extra
	}
	sc.stats.MACTests++
	{
		dx, dy, dz := comX[r]-pos.X, comY[r]-pos.Y, comZ[r]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[r]/d < alpha {
			sc.stats.PC++
			if kind[r] == tree.KindInternal {
				loads[r]++
			} else {
				extra += exAdd
			}
			return f.exps[r].EvalPotential(pos), extra
		}
	}
	if kind[r] == tree.KindBranch {
		f.deferGrafts(sc, r)
		return 0, extra
	}

	var top float64
	stack := sc.facc[:0]
	ends := sc.ends[:0]
	n := skip[r]
	for i := r + 1; i < n; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1] + top
			stack = stack[:len(stack)-1]
		}
		switch kind[i] {
		case tree.KindLeaf:
			lo, hi := f.c.Lo[i], f.c.Hi[i]
			loads[i] += int64(hi - lo)
			top += f.leafPot(lo, hi, self, pos, &sc.stats)
			i = skip[i]
			continue
		case tree.KindBranchLeaf:
			top += 0
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			if kind[i] == tree.KindInternal {
				loads[i]++
			} else {
				extra += exAdd
			}
			top += f.exps[i].EvalPotential(pos)
			i = skip[i]
			continue
		}
		if kind[i] == tree.KindBranch {
			top += 0
			f.deferGrafts(sc, i)
			i = skip[i]
			continue
		}
		stack = append(stack, top)
		top = 0
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j] + top
	}
	sc.facc, sc.ends = stack[:0], ends[:0]
	return top, extra
}

// sectionPot replays the owner-side service of one deferred branch:
// evaluation starts below the (already rejected) branch root, exactly as
// servePot does. Section loads land in the worker shard and flow
// back to the owner as deltas.
func (f *Flat) sectionPot(sc *letScratch, base int32, pos vec.V3, self int32, alpha float64) float64 {
	loads := sc.loads
	if f.c.Kind[base] == tree.KindLeaf {
		lo, hi := f.c.Lo[base], f.c.Hi[base]
		loads[base] += int64(hi - lo)
		return f.leafPot(lo, hi, self, pos, &sc.stats)
	}
	loads[base]++
	comX, comY, comZ := f.c.ComX, f.c.ComY, f.c.ComZ
	side, skip, kind := f.c.Side, f.c.Skip, f.c.Kind
	var top float64
	stack := sc.facc[:0]
	ends := sc.ends[:0]
	for i, end := base+1, f.c.Skip[base]; i < end; {
		for len(ends) > 0 && ends[len(ends)-1] == i {
			ends = ends[:len(ends)-1]
			top = stack[len(stack)-1] + top
			stack = stack[:len(stack)-1]
		}
		if kind[i] == tree.KindLeaf {
			lo, hi := f.c.Lo[i], f.c.Hi[i]
			loads[i] += int64(hi - lo)
			top += f.leafPot(lo, hi, self, pos, &sc.stats)
			i = skip[i]
			continue
		}
		sc.stats.MACTests++
		dx, dy, dz := comX[i]-pos.X, comY[i]-pos.Y, comZ[i]-pos.Z
		n2 := dx*dx + dy*dy + dz*dz
		if d := math.Sqrt(n2); d != 0 && side[i]/d < alpha {
			sc.stats.PC++
			loads[i]++
			top += f.exps[i].EvalPotential(pos)
			i = skip[i]
			continue
		}
		if kind[i] == tree.KindClosed {
			panic("let: essential-set criterion violated (closed node rejected by MAC)")
		}
		stack = append(stack, top)
		top = 0
		ends = append(ends, skip[i])
		i++
	}
	for j := len(ends) - 1; j >= 0; j-- {
		top = stack[j] + top
	}
	sc.facc, sc.ends = stack[:0], ends[:0]
	return top
}

// ApplyLocalLoads adds the merged Load counters of local nodes back to
// their tree nodes.
func (f *Flat) ApplyLocalLoads() {
	for i, n := range f.nodeRefs {
		if n != nil && f.loads[i] != 0 {
			n.Load += f.loads[i]
		}
	}
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

// Section returns the metadata of section si.
func (f *Flat) Section(si int) SecMeta { return f.sections[si] }
