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

func (c Config) withDefaults() Config {
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

// Stats counts the work of one evaluation.
type Stats struct {
	M2L int64 // cell–cell multipole-to-local conversions
	P2P int64 // particle–particle interactions
	P2M int64 // particle-to-multipole accumulations
	M2M int64 // multipole translations
	L2L int64 // local translations
	L2P int64 // local evaluations
}

// cell augments a tree node with FMM expansions about the box centre.
type cell struct {
	n      int32 // the cell's node in the evaluator's tree
	m      *phys.Expansion
	l      *phys.Local
	kids   []*cell
	radius float64 // half-diagonal of the box
}

// Evaluator holds the tree and expansions for a particle set.
type Evaluator struct {
	cfg   Config
	tr    *tree.Tree
	root  *cell
	stats Stats
}

// New builds the octree and runs the upward pass (P2M at the leaves, M2M
// at internal cells).
func New(particles []dist.Particle, domain vec.Box, cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{cfg: cfg}
	e.tr = tree.Build(particles, tree.Options{LeafCap: cfg.LeafCap, Domain: domain})
	e.root = e.upward(0)
	return e
}

// upward builds the cell wrapper and its multipole expansion.
func (e *Evaluator) upward(n int32) *cell {
	t := e.tr
	if t.Count(n) == 0 {
		return nil
	}
	box := t.Box(n)
	c := &cell{n: n, radius: box.Size().Norm() / 2}
	c.m = phys.NewExpansion(e.cfg.Degree, box.Center())
	c.l = phys.NewLocal(e.cfg.Degree, box.Center())
	if t.IsLeaf(n) {
		ps := t.Particles(n)
		for i := range ps {
			c.m.AddParticle(ps[i].Mass, ps[i].Pos)
		}
		e.stats.P2M += int64(len(ps))
		return c
	}
	for ch := n + 1; ch < t.Skip[n]; ch = t.Skip[ch] {
		if k := e.upward(ch); k != nil {
			c.kids = append(c.kids, k)
			c.m.Add(k.m.TranslateTo(c.m.Center))
			e.stats.M2M++
		}
	}
	return c
}

// accepted reports whether two cells are well separated under the
// cell–cell criterion.
func (e *Evaluator) accepted(a, b *cell) bool {
	d := a.m.Center.Dist(b.m.Center)
	if d == 0 {
		return false
	}
	return (a.radius+b.radius)/d < e.cfg.Theta
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
	maxID := 0
	for _, q := range e.tr.Particles(0) {
		maxID = max(maxID, q.ID)
	}
	out := make([]float64, maxID+1)
	var acc []vec.V3
	if withAccel {
		acc = make([]vec.V3, maxID+1)
	}
	if e.root == nil {
		return out, acc, e.stats
	}
	e.interact(e.root, e.root, out, acc)
	e.downward(e.root, out, acc)
	return out, acc, e.stats
}

// interact is the dual tree traversal: a receives, b sources.
func (e *Evaluator) interact(a, b *cell, out []float64, acc []vec.V3) {
	if a == nil || b == nil {
		return
	}
	if a != b && e.accepted(a, b) {
		a.l.AddMultipole(b.m)
		e.stats.M2L++
		return
	}
	aLeaf := e.tr.IsLeaf(a.n)
	bLeaf := e.tr.IsLeaf(b.n)
	if aLeaf && bLeaf {
		e.p2p(a.n, b.n, out, acc)
		return
	}
	// Split the larger cell (or the only splittable one).
	if bLeaf || (!aLeaf && a.radius >= b.radius) {
		for _, k := range a.kids {
			e.interact(k, b, out, acc)
		}
		return
	}
	for _, k := range b.kids {
		e.interact(a, k, out, acc)
	}
}

// p2p accumulates near-field particle–particle potentials (and forces)
// of source leaf b onto target leaf a.
func (e *Evaluator) p2p(a, b int32, out []float64, acc []vec.V3) {
	as, bs := e.tr.Particles(a), e.tr.Particles(b)
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
			if acc != nil {
				f = f.Add(phys.Accel(ti.Pos, sj.Pos, sj.Mass, 0))
			}
			e.stats.P2P++
		}
		out[ti.ID] += phi
		if acc != nil {
			acc[ti.ID] = acc[ti.ID].Add(f)
		}
	}
}

// downward pushes local expansions to the leaves and evaluates them.
func (e *Evaluator) downward(c *cell, out []float64, acc []vec.V3) {
	if c == nil {
		return
	}
	if e.tr.IsLeaf(c.n) {
		ps := e.tr.Particles(c.n)
		for i := range ps {
			out[ps[i].ID] += c.l.EvalPotential(ps[i].Pos)
			if acc != nil {
				acc[ps[i].ID] = acc[ps[i].ID].Add(c.l.EvalAccel(ps[i].Pos))
			}
		}
		e.stats.L2P += int64(len(ps))
		return
	}
	for _, k := range c.kids {
		k.l.Add(c.l.TranslateTo(k.l.Center))
		e.stats.L2L++
		e.downward(k, out, acc)
	}
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
