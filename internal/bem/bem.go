// Package bem demonstrates the paper's closing claim (Sections 2 and 6):
// the hierarchical techniques apply beyond gravity to boundary element
// methods, where "boundary elements correspond to particles and the force
// model is defined by the Green's function of the integral equation" —
// for electromagnetic scattering, the Helmholtz kernel e^{ikr}/r of the
// field integral equation.
//
// The package provides point sources with complex strengths, the exact
// O(n²) summation, and a Barnes–Hut-style treecode evaluation of the
// single-layer potential. Because the kernel oscillates, the acceptance
// criterion is two-fold: the geometric size/distance test of the
// Barnes–Hut method plus a low-frequency condition k·size < κ bounding
// the phase variation across the cluster. Evaluating the kernel sum is
// exactly the matrix–vector product a BEM iterative solver performs each
// step (the companion paper [17] parallelizes precisely this product).
package bem

import (
	"math"
	"math/cmplx"

	"repro/internal/dist"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Source is a boundary element: a collocation point with a complex
// strength (e.g. an induced surface current amplitude).
type Source struct {
	ID       int
	Pos      vec.V3
	Strength complex128
}

// Green evaluates the Helmholtz free-space Green's function e^{ikr}/r
// between x and y (unnormalized; the 1/4π factor is conventional and
// omitted consistently). Returns 0 at coincident points.
func Green(x, y vec.V3, k float64) complex128 {
	r := x.Dist(y)
	if r == 0 {
		return 0
	}
	return cmplx.Exp(complex(0, k*r)) / complex(r, 0)
}

// Direct computes the exact single-layer potential at every source point
// due to all other sources: u_i = Σ_{j≠i} q_j e^{ikr_ij}/r_ij — one dense
// matrix–vector product.
func Direct(src []Source, k float64) []complex128 {
	out := make([]complex128, len(src))
	for i := range src {
		var u complex128
		for j := range src {
			if i == j {
				continue
			}
			u += src[j].Strength * Green(src[i].Pos, src[j].Pos, k)
		}
		out[i] = u
	}
	return out
}

// Config parameterizes the treecode evaluation.
type Config struct {
	// Alpha is the Barnes–Hut size/distance acceptance parameter
	// (default 0.5).
	Alpha float64
	// Kappa bounds the phase variation k·size of accepted clusters
	// (default 0.5 radians); clusters whose extent spans a substantial
	// fraction of a wavelength are always opened.
	Kappa float64
	// LeafCap is the octree leaf capacity (default 8).
	LeafCap int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Kappa == 0 {
		c.Kappa = 0.5
	}
	if c.LeafCap == 0 {
		c.LeafCap = 8
	}
	return c
}

// Stats counts treecode work.
type Stats struct {
	Accepted int64 // cluster interactions
	Direct   int64 // point–point interactions
}

// Evaluator is a treecode for repeated Helmholtz matrix–vector products
// over a fixed geometry: the tree is built once, strengths may change
// between products (as they do across the iterations of a BEM solver).
type Evaluator struct {
	cfg Config
	k   float64
	tr  *tree.Tree
	src []Source
}

// NewEvaluator builds the spatial tree over the source points.
func NewEvaluator(src []Source, k float64, cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	// Reuse the gravity octree for geometry: encode each source as a
	// particle whose ID indexes back into src (mass is unused: strengths
	// are aggregated per product because they change between products).
	ps := make([]dist.Particle, len(src))
	pts := make([]vec.V3, len(src))
	for i, s := range src {
		ps[i] = dist.Particle{ID: s.ID, Mass: 1, Pos: s.Pos}
		pts[i] = s.Pos
	}
	domain := vec.BoundingBox(pts).Expand(1e-9)
	e := &Evaluator{cfg: cfg, k: k, src: src}
	e.tr = tree.Build(ps, tree.Options{LeafCap: cfg.LeafCap, Domain: domain})
	return e
}

// cluster aggregates for one node under the current strengths: total
// strength and the strength-weighted centroid ("centre of charge").
type cluster struct {
	q complex128
	c vec.V3
}

// MatVec computes the treecode approximation of the matrix–vector
// product for the given strengths (indexed by source ID). The result is
// indexed by source ID too.
func (e *Evaluator) MatVec(strengths []complex128) ([]complex128, Stats) {
	// Upward pass: aggregate strengths per node. Oscillatory kernels have
	// no useful single "centre" for the phase unless the cluster is small
	// relative to the wavelength; the κ criterion enforces that.
	t := e.tr
	agg := make([]cluster, t.NumNodes())
	var up func(n int32) cluster
	up = func(n int32) cluster {
		var cl cluster
		if t.Count(n) == 0 {
			return cl
		}
		if t.IsLeaf(n) {
			var wsum vec.V3
			var wnorm float64
			for _, p := range t.Particles(n) {
				q := strengths[p.ID]
				cl.q += q
				w := cmplx.Abs(q)
				wsum = wsum.Add(p.Pos.Scale(w))
				wnorm += w
			}
			if wnorm > 0 {
				cl.c = wsum.Scale(1 / wnorm)
			} else {
				cl.c = t.Box(n).Center()
			}
			agg[n] = cl
			return cl
		}
		var wsum vec.V3
		var wnorm float64
		for ch := n + 1; ch < t.Skip[n]; ch = t.Skip[ch] {
			sub := up(ch)
			cl.q += sub.q
			w := cmplx.Abs(sub.q)
			wsum = wsum.Add(sub.c.Scale(w))
			wnorm += w
		}
		if wnorm > 0 {
			cl.c = wsum.Scale(1 / wnorm)
		} else {
			cl.c = t.Box(n).Center()
		}
		agg[n] = cl
		return cl
	}
	up(0)

	out := make([]complex128, len(strengths))
	var st Stats
	var walk func(n int32, at vec.V3, self int) complex128
	walk = func(n int32, at vec.V3, self int) complex128 {
		if t.IsLeaf(n) {
			var u complex128
			for _, p := range t.Particles(n) {
				if p.ID == self {
					continue
				}
				u += strengths[p.ID] * Green(at, p.Pos, e.k)
				st.Direct++
			}
			return u
		}
		cl := agg[n]
		size := t.Side[n]
		d := at.Dist(cl.c)
		if d > 0 && size/d < e.cfg.Alpha && e.k*size < e.cfg.Kappa {
			st.Accepted++
			return cl.q * Green(at, cl.c, e.k)
		}
		var u complex128
		for ch := n + 1; ch < t.Skip[n]; ch = t.Skip[ch] {
			u += walk(ch, at, self)
		}
		return u
	}
	for _, s := range e.src {
		out[s.ID] = walk(0, s.Pos, s.ID)
	}
	return out, st
}

// SpherePanels places n roughly uniform collocation points on a sphere of
// the given radius (Fibonacci lattice) with plane-wave-induced strengths
// e^{ik·z} — the standard first-kind excitation of a scattering problem.
func SpherePanels(n int, radius, k float64) []Source {
	src := make([]Source, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		z := 1 - 2*(float64(i)+0.5)/float64(n)
		r := math.Sqrt(1 - z*z)
		phi := golden * float64(i)
		pos := vec.V3{X: radius * r * math.Cos(phi), Y: radius * r * math.Sin(phi), Z: radius * z}
		src[i] = Source{ID: i, Pos: pos, Strength: cmplx.Exp(complex(0, k*pos.Z))}
	}
	return src
}

// RelError returns ‖a-b‖₂/‖b‖₂ for complex vectors.
func RelError(approx, exact []complex128) float64 {
	var num, den float64
	for i := range exact {
		num += cmplx.Abs(approx[i]-exact[i]) * cmplx.Abs(approx[i]-exact[i])
		den += cmplx.Abs(exact[i]) * cmplx.Abs(exact[i])
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
