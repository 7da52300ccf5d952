// Package fmm implements the fast multipole method for gravitational
// potentials — the extension the paper points to ("Parallel formulations
// of FMM and the Barnes–Hut method are similar... the techniques can be
// extended to FMM", Sections 2 and 6). Unlike Barnes–Hut, the FMM uses
// cluster–cluster interactions: multipole expansions of well-separated
// source cells are converted once into local expansions of target cells
// (M2L), locals flow down the tree (L2L) and are evaluated at the leaves
// (L2P), giving O(n) complexity for uniform distributions.
//
// The implementation uses the dual tree traversal formulation: pairs of
// cells interact when their size-to-distance ratio passes an acceptance
// criterion, otherwise the larger cell is split — an adaptive,
// list-free way to build the interaction sets.
//
// Kernel is the one FMM kernel. The serial FMM (New, Potentials, Accels)
// runs it from the root of one tree; the parallel FMM (internal/parfmm)
// runs it under each branch of a rank's tree and keeps for itself only
// the pairing against remote cells.
package fmm

import (
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Config parameterizes an FMM evaluation.
type Config struct {
	// Degree of the multipole/local expansions (default 4).
	Degree int
	// Theta is the cell–cell acceptance parameter: cells interact via
	// M2L when (r_a + r_b) / distance < Theta (default 0.6).
	Theta float64
	// LeafCap is the octree leaf capacity (default 16; larger leaves
	// favour the FMM's P2P kernel).
	LeafCap int
}

// WithDefaults returns c with its zero fields set to their defaults.
func (c Config) WithDefaults() Config {
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.LeafCap == 0 {
		c.LeafCap = 16
	}
	return c
}

// Separated is the cell–cell acceptance criterion: cells of centres ca,
// cb and radii ra, rb are well separated when (ra + rb) / d < Theta at a
// distance d > 0 between the centres.
func (c Config) Separated(ca vec.V3, ra float64, cb vec.V3, rb float64) bool {
	d := ca.Dist(cb)
	return d > 0 && (ra+rb)/d < c.Theta
}

// Stats counts the work of one evaluation.
type Stats struct {
	M2L int64 // cell–cell multipole-to-local conversions
	P2P int64 // particle–particle interactions
	P2M int64 // particle-to-multipole accumulations
	M2M int64 // multipole translations
	L2L int64 // local translations
	L2P int64 // local evaluations
}

// Kernel is the FMM over one tree's columns: each node's multipole about
// its box centre in the tree's Exp column, its local in a column beside
// it, box centre and radius from one box table. Upward, Interact and
// Downward are its passes over the subtree of a node, M2L its one
// conversion.
type Kernel struct {
	Stats Stats
	Pot   []float64 // potentials by particle ID, added into
	Acc   []vec.V3  // accelerations by particle ID, added into; nil skips them

	cfg    Config
	t      *tree.Tree
	boxes  []vec.Box     // per node of t
	locals []*phys.Local // per node of t
	charge func(flops float64)
}

// NewKernel returns the kernel over t. A non-nil charge is called with
// the flops of each step as the step completes (a rank's simulated
// clock); the serial FMM passes nil.
func NewKernel(t *tree.Tree, cfg Config, charge func(flops float64)) *Kernel {
	return &Kernel{
		cfg: cfg.WithDefaults(), t: t, boxes: t.Boxes(nil),
		locals: make([]*phys.Local, t.NumNodes()), charge: charge,
	}
}

func (k *Kernel) spend(flops float64) {
	if k.charge != nil {
		k.charge(flops)
	}
}

// Center returns node n's box centre, about which its expansions are.
func (k *Kernel) Center(n int32) vec.V3 { return k.boxes[n].Center() }

// Radius returns the half-diagonal of node n's box.
func (k *Kernel) Radius(n int32) float64 { return k.boxes[n].Size().Norm() / 2 }

// Local returns node n's local expansion (set by Upward).
func (k *Kernel) Local(n int32) *phys.Local { return k.locals[n] }

// Upward builds the multipole of every node under n (P2M at the leaves,
// M2M above; a keyed tree has no empty node below its root) and an empty
// local beside each, then charges the subtree's P2M and M2M flops.
func (k *Kernel) Upward(n int32) {
	k.upward(n)
	d := k.cfg.Degree
	k.spend(float64(k.t.Count(n))*phys.P2MFlops(d) + float64(k.t.CountNodes(n))*phys.M2MFlops(d))
}

func (k *Kernel) upward(n int32) {
	t := k.t
	if t.Count(n) == 0 {
		return
	}
	m := phys.NewExpansion(k.cfg.Degree, k.Center(n))
	if t.IsLeaf(n) {
		ps := t.Particles(n)
		for i := range ps {
			m.AddParticle(ps[i].Mass, ps[i].Pos)
		}
		k.Stats.P2M += int64(len(ps))
	} else {
		for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
			k.upward(c)
			m.Add(t.Exp[c].TranslateTo(m.Center))
			k.Stats.M2M++
		}
	}
	t.Exp[n] = m
	k.locals[n] = phys.NewLocal(k.cfg.Degree, m.Center)
}

// M2L converts multipole m into local l.
func (k *Kernel) M2L(l *phys.Local, m *phys.Expansion) {
	l.AddMultipole(m)
	k.Stats.M2L++
	k.spend(phys.M2LFlops(k.cfg.Degree))
}

// Interact is the dual tree traversal of target subtree a against source
// subtree b: a well-separated pair converts b's multipole into a's local,
// two leaves interact particle by particle, otherwise the larger cell (or
// the only splittable one) splits.
func (k *Kernel) Interact(a, b int32) {
	t := k.t
	if t.Count(a) == 0 || t.Count(b) == 0 {
		return
	}
	if a != b && k.cfg.Separated(k.Center(a), k.Radius(a), k.Center(b), k.Radius(b)) {
		k.M2L(k.locals[a], t.Exp[b])
		return
	}
	aLeaf, bLeaf := t.IsLeaf(a), t.IsLeaf(b)
	if aLeaf && bLeaf {
		k.p2p(a, b)
		return
	}
	if bLeaf || (!aLeaf && k.Radius(a) >= k.Radius(b)) {
		for c := a + 1; c < t.Skip[a]; c = t.Skip[c] {
			k.Interact(c, b)
		}
		return
	}
	for c := b + 1; c < t.Skip[b]; c = t.Skip[c] {
		k.Interact(a, c)
	}
}

// p2p accumulates near-field particle–particle potentials (and forces)
// of source leaf b onto target leaf a.
func (k *Kernel) p2p(a, b int32) {
	as, bs := k.t.Particles(a), k.t.Particles(b)
	for i := range as {
		ti := &as[i]
		var phi float64
		var f vec.V3
		for j := range bs {
			sj := &bs[j]
			if sj.ID == ti.ID {
				continue
			}
			phi += phys.Potential(ti.Pos, sj.Pos, sj.Mass, 0)
			if k.Acc != nil {
				f = f.Add(phys.Accel(ti.Pos, sj.Pos, sj.Mass, 0))
			}
			k.Stats.P2P++
		}
		k.Pot[ti.ID] += phi
		if k.Acc != nil {
			k.Acc[ti.ID] = k.Acc[ti.ID].Add(f)
		}
	}
	k.spend(float64(len(as)*len(bs)) * 8)
}

// Downward pushes the locals under n to the leaves (L2L) and evaluates
// them at the particles (L2P).
func (k *Kernel) Downward(n int32) {
	t := k.t
	if t.Count(n) == 0 {
		return
	}
	l := k.locals[n]
	if t.IsLeaf(n) {
		ps := t.Particles(n)
		for i := range ps {
			k.Pot[ps[i].ID] += l.EvalPotential(ps[i].Pos)
			if k.Acc != nil {
				k.Acc[ps[i].ID] = k.Acc[ps[i].ID].Add(l.EvalAccel(ps[i].Pos))
			}
		}
		k.Stats.L2P += int64(len(ps))
		k.spend(float64(len(ps)) * phys.L2PFlops(k.cfg.Degree))
		return
	}
	for c := n + 1; c < t.Skip[n]; c = t.Skip[c] {
		k.locals[c].Add(l.TranslateTo(k.locals[c].Center))
		k.Stats.L2L++
		k.spend(phys.L2LFlops(k.cfg.Degree))
		k.Downward(c)
	}
}

// Evaluator holds the tree and expansions for a particle set.
type Evaluator struct{ k *Kernel }

// New builds the octree and runs the upward pass (P2M at the leaves, M2M
// at internal cells).
func New(particles []dist.Particle, domain vec.Box, cfg Config) *Evaluator {
	cfg = cfg.WithDefaults()
	k := NewKernel(tree.Build(particles, tree.Options{LeafCap: cfg.LeafCap, Domain: domain}), cfg, nil)
	k.Upward(0)
	return &Evaluator{k}
}

// Potentials evaluates the potential at every particle (indexed by
// particle ID over the maximum ID present) and returns the work stats.
// An Evaluator supports exactly one evaluation (Potentials or Evaluate).
func (e *Evaluator) Potentials() ([]float64, Stats) {
	pots, _, stats := e.evaluate(false)
	return pots, stats
}

// Evaluate computes both potentials and accelerations (a = -∇Φ, from the
// analytic gradients of the expansions) in one pass, indexed by particle
// ID. An Evaluator supports exactly one evaluation.
func (e *Evaluator) Evaluate() ([]float64, []vec.V3, Stats) {
	return e.evaluate(true)
}

func (e *Evaluator) evaluate(withAccel bool) ([]float64, []vec.V3, Stats) {
	k := e.k
	maxID := 0
	for _, q := range k.t.Particles(0) {
		maxID = max(maxID, q.ID)
	}
	k.Pot = make([]float64, maxID+1)
	if withAccel {
		k.Acc = make([]vec.V3, maxID+1)
	}
	k.Interact(0, 0)
	k.Downward(0)
	return k.Pot, k.Acc, k.Stats
}

// Potentials is a convenience one-shot evaluation.
func Potentials(particles []dist.Particle, domain vec.Box, cfg Config) ([]float64, Stats) {
	return New(particles, domain, cfg).Potentials()
}

// Accels is a convenience one-shot force evaluation (a = -∇Φ).
func Accels(particles []dist.Particle, domain vec.Box, cfg Config) ([]vec.V3, Stats) {
	_, acc, stats := New(particles, domain, cfg).Evaluate()
	return acc, stats
}
