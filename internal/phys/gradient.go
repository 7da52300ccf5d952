package phys

import (
	"math/cmplx"

	"repro/internal/vec"
)

// Force evaluation from expansions. The paper computes potentials with
// multipole series and notes that "force is equal to the gradient of
// potential, and therefore can be easily computed from the latter"
// (Section 2). Local.EvalAccel does exactly that, analytically, using the
// differentiation identities of the scaled regular solid harmonics:
//
//	∂z R_l^m          =  R_{l-1}^m
//	(∂x + i∂y) R_l^m  =  R_{l-1}^{m+1}
//	(∂x - i∂y) R_l^m  = -R_{l-1}^{m-1}
//
// (verified against numerical differentiation in the tests).

// harmAt reads coefficient (l, m) of a m ≥ 0 packed harmonic table with
// Hermitian extension, returning 0 outside |m| ≤ l.
func harmAt(tab []complex128, l, m int) complex128 {
	if m > l || -m > l || l < 0 {
		return 0
	}
	if m >= 0 {
		return tab[idx(l, m)]
	}
	c := cmplx.Conj(tab[idx(l, -m)])
	if (-m)&1 == 1 {
		return -c
	}
	return c
}

// EvalAccel returns a = -∇Φ implied by the local expansion at pos:
//
//	a = G Σ_{l,m} conj(L_l^m) · ∇R_l^m(pos - centre).
func (lo *Local) EvalAccel(pos vec.V3) vec.V3 {
	d := pos.Sub(lo.Center)
	k := lo.Degree
	reg := make([]complex128, coeffLen(k))
	regular(d, k, reg)
	var ax, ay, az complex128
	for l := 1; l <= k; l++ { // l = 0 has zero gradient
		for m := -l; m <= l; m++ {
			L := lo.at(l, m)
			if L == 0 {
				continue
			}
			plus := harmAt(reg, l-1, m+1)   // (∂x+i∂y) R
			minus := -harmAt(reg, l-1, m-1) // (∂x-i∂y) R
			dz := harmAt(reg, l-1, m)
			dx := (plus + minus) / 2
			dy := (plus - minus) / complex(0, 2)
			ax += cmplx.Conj(L) * dx
			ay += cmplx.Conj(L) * dy
			az += cmplx.Conj(L) * dz
		}
	}
	return vec.V3{X: G * real(ax), Y: G * real(ay), Z: G * real(az)}
}
