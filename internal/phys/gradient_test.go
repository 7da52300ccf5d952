package phys

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// numGrad computes -∇Φ of a scalar field numerically.
func numGrad(phi func(vec.V3) float64, at vec.V3) vec.V3 {
	const h = 1e-6
	return vec.V3{
		X: -(phi(at.Add(vec.V3{X: h})) - phi(at.Sub(vec.V3{X: h}))) / (2 * h),
		Y: -(phi(at.Add(vec.V3{Y: h})) - phi(at.Sub(vec.V3{Y: h}))) / (2 * h),
		Z: -(phi(at.Add(vec.V3{Z: h})) - phi(at.Sub(vec.V3{Z: h}))) / (2 * h),
	}
}

func TestLocalEvalAccelMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms, ps := randomCluster(rng, 20, 0.4)
	m := NewExpansion(8, vec.V3{})
	for i := range ms {
		m.AddParticle(ms[i], ps[i].Add(vec.V3{X: -5}))
	}
	lo := NewLocal(8, vec.V3{X: 5})
	lo.AddMultipole(m)
	for trial := 0; trial < 10; trial++ {
		at := vec.V3{X: 5, Y: 0, Z: 0}.Add(vec.V3{
			X: (rng.Float64() - 0.5) * 0.6,
			Y: (rng.Float64() - 0.5) * 0.6,
			Z: (rng.Float64() - 0.5) * 0.6,
		})
		want := numGrad(lo.EvalPotential, at)
		got := lo.EvalAccel(at)
		if got.Sub(want).Norm() > 1e-5*(1+want.Norm()) {
			t.Fatalf("trial %d: analytic %v vs numeric %v", trial, got, want)
		}
	}
}

func TestLocalEvalAccelMatchesDirectForce(t *testing.T) {
	src := vec.V3{X: -6, Y: 2, Z: 1}
	const mass = 4.0
	lo := NewLocal(12, vec.V3{X: 4})
	lo.AddSource(mass, src)
	at := vec.V3{X: 4.2, Y: -0.3, Z: 0.2}
	want := Accel(at, src, mass, 0)
	got := lo.EvalAccel(at)
	if got.Sub(want).Norm() > 1e-8*want.Norm() {
		t.Fatalf("local accel %v, direct %v", got, want)
	}
}

func TestEvalAccelDegreeZeroLocalIsZero(t *testing.T) {
	lo := NewLocal(0, vec.V3{})
	lo.AddSource(1, vec.V3{X: 10})
	if a := lo.EvalAccel(vec.V3{X: 0.1}); a.Norm() != 0 {
		t.Fatalf("degree-0 local has gradient %v", a)
	}
}

func TestEvalAccelConsistencyAcrossTranslation(t *testing.T) {
	// L2L must preserve accelerations, not just potentials.
	rng := rand.New(rand.NewSource(4))
	_, _, m := wellSeparatedSetup(rng, 15, 0.4, vec.V3{X: -5}, 8)
	lo := NewLocal(8, vec.V3{X: 5})
	lo.AddMultipole(m)
	moved := lo.TranslateTo(vec.V3{X: 5.2, Y: 0.1})
	at := vec.V3{X: 5.1, Y: 0.2, Z: -0.1}
	a1, a2 := lo.EvalAccel(at), moved.EvalAccel(at)
	if a1.Sub(a2).Norm() > 1e-9*(1+a1.Norm()) {
		t.Fatalf("translation changed acceleration: %v vs %v", a1, a2)
	}
}

func TestAccelConservativeProperty(t *testing.T) {
	// The curl of a gradient field vanishes: check one off-diagonal pair
	// of numerical derivatives of a local expansion's acceleration.
	rng := rand.New(rand.NewSource(5))
	_, _, m := wellSeparatedSetup(rng, 20, 0.5, vec.V3{X: -5}, 6)
	lo := NewLocal(6, vec.V3{X: 2})
	lo.AddMultipole(m)
	at := vec.V3{X: 2.2, Y: 0.3, Z: -0.1}
	const h = 1e-5
	dAxDy := (lo.EvalAccel(at.Add(vec.V3{Y: h})).X - lo.EvalAccel(at.Sub(vec.V3{Y: h})).X) / (2 * h)
	dAyDx := (lo.EvalAccel(at.Add(vec.V3{X: h})).Y - lo.EvalAccel(at.Sub(vec.V3{X: h})).Y) / (2 * h)
	if math.Abs(dAxDy-dAyDx) > 1e-4*(1+math.Abs(dAxDy)) {
		t.Fatalf("curl component %v vs %v", dAxDy, dAyDx)
	}
}
