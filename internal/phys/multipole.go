package phys

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/vec"
)

// Expansion is a degree-k multipole expansion of the gravitational
// potential of a set of point masses about a centre, using complex solid
// harmonics (the 3-D generalization of the paper's Legendre-polynomial
// series; Section 5.2). Coefficients are stored for m ≥ 0 only; the
// m < 0 coefficients follow from M_l^{-m} = (-1)^m conj(M_l^m) because
// the sources are real.
//
// With the scaled solid harmonics
//
//	R_l^m(r) = P_l^m(cosθ) e^{imφ} r^l / (l+m)!
//	S_l^m(r) = (l-m)! P_l^m(cosθ) e^{imφ} / r^{l+1}
//
// the kernel expands as 1/|x-y| = Σ_{l,m} R_l^m(y) · conj(S_l^m(x)) for
// |y| < |x|, so moments are M_l^m = Σ_j m_j R_l^m(y_j - centre) and the
// potential at x is Φ(x) = -G Σ_{l,m} M_l^m conj(S_l^m(x - centre)).
type Expansion struct {
	Degree int
	Center vec.V3
	// C holds the coefficients for m ≥ 0 in row order l = 0..Degree,
	// m = 0..l: index l(l+1)/2 + m.
	C []complex128
}

// coeffLen returns the number of stored (m ≥ 0) coefficients for degree k.
func coeffLen(k int) int { return (k + 1) * (k + 2) / 2 }

// NewExpansion returns an empty expansion of the given degree about center.
func NewExpansion(degree int, center vec.V3) *Expansion {
	if degree < 0 {
		panic(fmt.Sprintf("phys: negative multipole degree %d", degree))
	}
	return &Expansion{Degree: degree, Center: center, C: make([]complex128, coeffLen(degree))}
}

// idx returns the storage index of coefficient (l, m) with m ≥ 0.
func idx(l, m int) int { return l*(l+1)/2 + m }

// at returns coefficient (l, m) for any -l ≤ m ≤ l using the Hermitian
// symmetry of real-source moments.
func (e *Expansion) at(l, m int) complex128 {
	if m >= 0 {
		return e.C[idx(l, m)]
	}
	c := cmplx.Conj(e.C[idx(l, -m)])
	if (-m)&1 == 1 {
		return -c
	}
	return c
}

// Clone returns a deep copy of the expansion.
func (e *Expansion) Clone() *Expansion {
	c := &Expansion{Degree: e.Degree, Center: e.Center, C: make([]complex128, len(e.C))}
	copy(c.C, e.C)
	return c
}

// Reset zeroes the coefficients, keeping degree and centre.
func (e *Expansion) Reset() {
	for i := range e.C {
		e.C[i] = 0
	}
}

// Mass returns the monopole moment (total mass) of the expansion.
func (e *Expansion) Mass() float64 { return real(e.C[0]) }

// regular fills out[idx(l,m)] with R_l^m(d) for m ≥ 0, l ≤ k, using the
// stable upward recurrences
//
//	R_0^0 = 1
//	R_l^l = R_{l-1}^{l-1} · (-(x+iy)) / (2l)
//	R_{m+1}^m = z · R_m^m
//	R_l^m = [ (2l-1) z R_{l-1}^m - r² R_{l-2}^m ] / ((l+m)(l-m))
func regular(d vec.V3, k int, out []complex128) {
	out[0] = 1
	if k == 0 {
		return
	}
	xy := complex(d.X, d.Y)
	r2 := complex(d.Norm2(), 0)
	z := complex(d.Z, 0)
	for m := 1; m <= k; m++ {
		out[idx(m, m)] = out[idx(m-1, m-1)] * (-xy) / complex(2*float64(m), 0)
	}
	for m := 0; m < k; m++ {
		out[idx(m+1, m)] = z * out[idx(m, m)]
	}
	for m := 0; m <= k; m++ {
		for l := m + 2; l <= k; l++ {
			num := complex(2*float64(l)-1, 0)*z*out[idx(l-1, m)] - r2*out[idx(l-2, m)]
			out[idx(l, m)] = num / complex(float64(l+m)*float64(l-m), 0)
		}
	}
}

// irregular fills out[idx(l,m)] with S_l^m(d) for m ≥ 0, l ≤ k:
//
//	S_0^0 = 1/r
//	S_l^l = (2l-1) · (-(x+iy)/r²) · S_{l-1}^{l-1}
//	S_{m+1}^m = (2m+1) (z/r²) S_m^m
//	S_l^m = [ (2l-1) z S_{l-1}^m - ((l-1)²-m²) S_{l-2}^m ] / r²
func irregular(d vec.V3, k int, out []complex128) {
	r2 := d.Norm2()
	if r2 == 0 {
		panic("phys: irregular solid harmonics at the expansion centre")
	}
	invr2 := complex(1/r2, 0)
	out[0] = complex(1/math.Sqrt(r2), 0)
	if k == 0 {
		return
	}
	xy := complex(d.X, d.Y)
	z := complex(d.Z, 0)
	for m := 1; m <= k; m++ {
		out[idx(m, m)] = complex(2*float64(m)-1, 0) * (-xy) * invr2 * out[idx(m-1, m-1)]
	}
	for m := 0; m < k; m++ {
		out[idx(m+1, m)] = complex(2*float64(m)+1, 0) * z * invr2 * out[idx(m, m)]
	}
	for m := 0; m <= k; m++ {
		for l := m + 2; l <= k; l++ {
			lm1 := float64(l - 1)
			num := complex(2*float64(l)-1, 0)*z*out[idx(l-1, m)] -
				complex(lm1*lm1-float64(m)*float64(m), 0)*out[idx(l-2, m)]
			out[idx(l, m)] = num * invr2
		}
	}
}

// AddParticle accumulates the moments of a point mass at pos into the
// expansion (the P2M operator).
func (e *Expansion) AddParticle(mass float64, pos vec.V3) {
	d := pos.Sub(e.Center)
	reg := make([]complex128, len(e.C))
	regular(d, e.Degree, reg)
	cm := complex(mass, 0)
	for i := range e.C {
		e.C[i] += cm * reg[i]
	}
}

// AddParticles accumulates several point masses, reusing scratch space.
func (e *Expansion) AddParticles(masses []float64, pos []vec.V3) {
	if len(masses) != len(pos) {
		panic("phys: AddParticles length mismatch")
	}
	reg := make([]complex128, len(e.C))
	for j := range masses {
		regular(pos[j].Sub(e.Center), e.Degree, reg)
		cm := complex(masses[j], 0)
		for i := range e.C {
			e.C[i] += cm * reg[i]
		}
	}
}

// Add accumulates another expansion with the same centre and degree.
func (e *Expansion) Add(o *Expansion) {
	if o.Degree != e.Degree || o.Center != e.Center {
		panic("phys: Add requires identical centre and degree")
	}
	for i := range e.C {
		e.C[i] += o.C[i]
	}
}

// TranslateTo returns the expansion re-centred at newCenter (the M2M
// operator), exact for the stored degree: a degree-k expansion translated
// is again degree-k with no additional truncation error. Used in the
// upward pass to combine child-cell expansions into the parent.
//
// Derivation: with t = newCenter - Center, moments about the new centre
// are M'_l^m = Σ_{j=0}^{l} Σ_{k=-j}^{j} R_j^k(-t) · M_{l-j}^{m-k}.
func (e *Expansion) TranslateTo(newCenter vec.V3) *Expansion {
	t := newCenter.Sub(e.Center)
	out := NewExpansion(e.Degree, newCenter)
	if t == (vec.V3{}) {
		copy(out.C, e.C)
		return out
	}
	reg := make([]complex128, len(e.C))
	regular(vec.V3{}.Sub(t), e.Degree, reg)
	regAt := func(l, m int) complex128 {
		if m >= 0 {
			return reg[idx(l, m)]
		}
		c := cmplx.Conj(reg[idx(l, -m)])
		if (-m)&1 == 1 {
			return -c
		}
		return c
	}
	for l := 0; l <= e.Degree; l++ {
		for m := 0; m <= l; m++ {
			var sum complex128
			for j := 0; j <= l; j++ {
				lo := -j
				if m-(l-j) > lo {
					lo = m - (l - j)
				}
				hi := j
				if m+(l-j) < hi {
					hi = m + (l - j)
				}
				for k := lo; k <= hi; k++ {
					sum += regAt(j, k) * e.at(l-j, m-k)
				}
			}
			out.C[idx(l, m)] = sum
		}
	}
	return out
}

// EvalPotential returns the gravitational potential at pos implied by the
// truncated expansion: Φ(pos) = -G Σ_{l,m} M_l^m conj(S_l^m(pos-centre)).
// pos must lie outside the cluster for the series to converge; callers
// enforce that through the multipole acceptance criterion.
func (e *Expansion) EvalPotential(pos vec.V3) float64 {
	return e.EvalPotentialScratch(pos, make([]complex128, len(e.C)))
}

// EvalPotentialScratch is EvalPotential without the allocation: irr, the
// caller's buffer of at least len(e.C) values, is overwritten with the
// irregular harmonics at pos and the moments are contracted against it.
func (e *Expansion) EvalPotentialScratch(pos vec.V3, irr []complex128) float64 {
	irregular(pos.Sub(e.Center), e.Degree, irr)
	var phi float64
	for l := 0; l <= e.Degree; l++ {
		phi += real(e.C[idx(l, 0)] * cmplx.Conj(irr[idx(l, 0)]))
		for m := 1; m <= l; m++ {
			phi += 2 * real(e.C[idx(l, m)]*cmplx.Conj(irr[idx(l, m)]))
		}
	}
	return -G * phi
}

// EvalPotentialInto evaluates the potential at many positions, reusing a
// scratch buffer; it returns the potentials appended to dst.
func (e *Expansion) EvalPotentialInto(dst []float64, pos []vec.V3) []float64 {
	irr := make([]complex128, len(e.C))
	for _, p := range pos {
		dst = append(dst, e.EvalPotentialScratch(p, irr))
	}
	return dst
}

// Floats serializes the expansion coefficients (for data-shipping
// communication accounting and tests): real/imag pairs then the centre.
func (e *Expansion) Floats() []float64 {
	out := make([]float64, 0, 2*len(e.C)+3)
	for _, c := range e.C {
		out = append(out, real(c), imag(c))
	}
	return append(out, e.Center.X, e.Center.Y, e.Center.Z)
}

// ExpansionFromFloats reconstructs an expansion serialized by Floats.
func ExpansionFromFloats(degree int, data []float64) (*Expansion, error) {
	n := coeffLen(degree)
	if len(data) != 2*n+3 {
		return nil, fmt.Errorf("phys: expansion payload has %d floats, want %d", len(data), 2*n+3)
	}
	e := NewExpansion(degree, vec.V3{X: data[2*n], Y: data[2*n+1], Z: data[2*n+2]})
	for i := 0; i < n; i++ {
		e.C[i] = complex(data[2*i], data[2*i+1])
	}
	return e, nil
}
