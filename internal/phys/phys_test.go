package phys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestAccelPointsTowardSource(t *testing.T) {
	a := Accel(vec.V3{}, vec.V3{X: 2}, 1, 0)
	if a.X <= 0 || a.Y != 0 || a.Z != 0 {
		t.Fatalf("Accel = %v", a)
	}
	if math.Abs(a.X-0.25) > 1e-15 { // G m / r² = 1/4
		t.Fatalf("|a| = %v, want 0.25", a.X)
	}
}

func TestAccelSofteningReducesMagnitude(t *testing.T) {
	hard := Accel(vec.V3{}, vec.V3{X: 1}, 1, 0).Norm()
	soft := Accel(vec.V3{}, vec.V3{X: 1}, 1, 0.5).Norm()
	if soft >= hard {
		t.Fatalf("softened %v not below unsoftened %v", soft, hard)
	}
}

func TestAccelSelfIsZero(t *testing.T) {
	p := vec.V3{X: 1, Y: 2, Z: 3}
	if a := Accel(p, p, 5, 0); a != (vec.V3{}) {
		t.Fatalf("self acceleration = %v", a)
	}
	if phi := Potential(p, p, 5, 0); phi != 0 {
		t.Fatalf("self potential = %v", phi)
	}
}

func TestPotentialValue(t *testing.T) {
	phi := Potential(vec.V3{}, vec.V3{X: 2}, 4, 0)
	if math.Abs(phi+2) > 1e-15 {
		t.Fatalf("Potential = %v, want -2", phi)
	}
	// Softened potential at zero distance is -G m / eps.
	phi = Potential(vec.V3{}, vec.V3{}, 3, 0.5)
	if math.Abs(phi+6) > 1e-12 {
		t.Fatalf("softened Potential = %v, want -6", phi)
	}
}

func TestForceIsGradientOfPotential(t *testing.T) {
	// Numerical gradient of the softened potential matches Accel.
	src := vec.V3{X: 1, Y: -2, Z: 0.5}
	pos := vec.V3{X: -0.3, Y: 0.4, Z: 2}
	const m, eps, h = 2.5, 0.1, 1e-6
	grad := vec.V3{
		X: (Potential(pos.Add(vec.V3{X: h}), src, m, eps) - Potential(pos.Sub(vec.V3{X: h}), src, m, eps)) / (2 * h),
		Y: (Potential(pos.Add(vec.V3{Y: h}), src, m, eps) - Potential(pos.Sub(vec.V3{Y: h}), src, m, eps)) / (2 * h),
		Z: (Potential(pos.Add(vec.V3{Z: h}), src, m, eps) - Potential(pos.Sub(vec.V3{Z: h}), src, m, eps)) / (2 * h),
	}
	a := Accel(pos, src, m, eps)
	// a = -∇Φ
	if d := a.Add(grad).Norm(); d > 1e-6 {
		t.Fatalf("force/potential mismatch: %v", d)
	}
}

func TestFractionalError(t *testing.T) {
	exact := []float64{3, 4}
	if e := FractionalError(exact, exact); e != 0 {
		t.Fatalf("identical vectors error = %v", e)
	}
	if e := FractionalError(exact, []float64{3, 3}); math.Abs(e-0.2) > 1e-15 {
		t.Fatalf("error = %v, want 0.2", e)
	}
	if e := FractionalError([]float64{0}, []float64{0}); e != 0 {
		t.Fatalf("zero/zero error = %v", e)
	}
	if e := FractionalError([]float64{0}, []float64{1}); !math.IsInf(e, 1) {
		t.Fatalf("zero-denominator error = %v", e)
	}
}

func TestFractionalErrorV3(t *testing.T) {
	exact := []vec.V3{{X: 3}, {Y: 4}}
	if e := FractionalErrorV3(exact, exact); e != 0 {
		t.Fatalf("identical error = %v", e)
	}
	approx := []vec.V3{{X: 3}, {Y: 3}}
	if e := FractionalErrorV3(exact, approx); math.Abs(e-0.2) > 1e-15 {
		t.Fatalf("error = %v", e)
	}
}

func TestCostModel(t *testing.T) {
	if InteractionFlops(0) != 13 {
		t.Fatalf("monopole interaction = %v", InteractionFlops(0))
	}
	if InteractionFlops(6) != 13+16*36 {
		t.Fatalf("degree-6 interaction = %v", InteractionFlops(6))
	}
	// Paper: "a 6 degree multipole expansion consists of ... 72 floating
	// point numbers" in 2-D; our 3-D series ships (k+1)(k+2)/2 complex
	// coefficients (Hermitian half) plus the origin.
	if SeriesFloats(6) != 7*8+3 {
		t.Fatalf("SeriesFloats(6) = %d", SeriesFloats(6))
	}
	// The expansion operators cost per coefficient, c = (k+1)(k+2)/2.
	for k := 0; k <= 6; k++ {
		c := float64((k + 1) * (k + 2) / 2)
		for _, op := range []struct {
			name      string
			got, want float64
		}{
			{"P2M", P2MFlops(k), 10 * c},
			{"M2M", M2MFlops(k), 4 * c * c},
			{"M2L", M2LFlops(k), 6 * c * c},
			{"L2L", L2LFlops(k), 4 * c * c},
			{"L2P", L2PFlops(k), 8 * c},
		} {
			if op.got != op.want {
				t.Errorf("%sFlops(%d) = %v, want %v", op.name, k, op.got, op.want)
			}
		}
	}
}

// randomCluster builds a small cluster near the origin.
func randomCluster(rng *rand.Rand, n int, radius float64) (ms []float64, ps []vec.V3) {
	for i := 0; i < n; i++ {
		ms = append(ms, rng.Float64()+0.1)
		ps = append(ps, vec.V3{
			X: (rng.Float64()*2 - 1) * radius,
			Y: (rng.Float64()*2 - 1) * radius,
			Z: (rng.Float64()*2 - 1) * radius,
		})
	}
	return
}

// directPotential sums the exact unsoftened potential of the cluster.
func directPotential(at vec.V3, ms []float64, ps []vec.V3) float64 {
	var phi float64
	for i := range ms {
		phi += Potential(at, ps[i], ms[i], 0)
	}
	return phi
}

func TestMonopoleExpansionMatchesPointMass(t *testing.T) {
	e := NewExpansion(0, vec.V3{})
	e.AddParticle(2, vec.V3{})
	got := e.EvalPotential(vec.V3{X: 4})
	want := Potential(vec.V3{X: 4}, vec.V3{}, 2, 0)
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("monopole potential = %v, want %v", got, want)
	}
	if e.Mass() != 2 {
		t.Fatalf("Mass = %v", e.Mass())
	}
}

func TestExpansionConvergesWithDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ms, ps := randomCluster(rng, 60, 0.5)
	eval := vec.V3{X: 2.5, Y: -1.0, Z: 1.5} // ~3 cluster radii away
	exact := directPotential(eval, ms, ps)

	var prevErr float64 = math.Inf(1)
	for _, k := range []int{0, 1, 2, 3, 4, 6, 8} {
		e := NewExpansion(k, vec.V3{})
		e.AddParticles(ms, ps)
		err := math.Abs(e.EvalPotential(eval)-exact) / math.Abs(exact)
		if err > prevErr*1.5 { // must decrease (allow small noise)
			t.Fatalf("degree %d error %v did not improve on %v", k, err, prevErr)
		}
		prevErr = err
	}
	// Truncation error ≈ (a/r)^(k+1) ≈ 0.28⁹ ≈ 1e-5 before prefactors.
	if prevErr > 1e-6 {
		t.Fatalf("degree-8 error still %v", prevErr)
	}
}

func TestExpansionExactForSingleParticleHighDegree(t *testing.T) {
	// A single particle at distance d from the centre: the expansion
	// truncated at degree k has error ~ (d/r)^(k+1); with d/r = 0.1 and
	// k = 10 the result is essentially exact.
	e := NewExpansion(10, vec.V3{})
	src := vec.V3{X: 0.05, Y: 0.05, Z: -0.08}
	e.AddParticle(1.5, src)
	eval := vec.V3{X: 1, Y: -0.2, Z: 0.3}
	got := e.EvalPotential(eval)
	want := Potential(eval, src, 1.5, 0)
	// Error scale is (d/r)^(k+1) ≈ 0.1¹¹ = 1e-11 relative.
	if math.Abs(got-want) > 1e-10*math.Abs(want) {
		t.Fatalf("potential = %v, want %v", got, want)
	}
}

func TestM2MEqualsDirectP2M(t *testing.T) {
	// Building moments at centre A and translating to B must equal
	// building directly at B — exactly, not approximately.
	rng := rand.New(rand.NewSource(3))
	ms, ps := randomCluster(rng, 40, 0.5)
	a := vec.V3{X: 0.2, Y: -0.1, Z: 0.3}
	b := vec.V3{X: -0.4, Y: 0.5, Z: 0.1}
	for _, k := range []int{0, 1, 2, 3, 5, 8} {
		ea := NewExpansion(k, a)
		ea.AddParticles(ms, ps)
		moved := ea.TranslateTo(b)
		eb := NewExpansion(k, b)
		eb.AddParticles(ms, ps)
		for i := range eb.C {
			d := moved.C[i] - eb.C[i]
			mag := math.Hypot(real(eb.C[i]), imag(eb.C[i]))
			if math.Hypot(real(d), imag(d)) > 1e-11*(1+mag) {
				t.Fatalf("degree %d coeff %d: translate %v vs direct %v", k, i, moved.C[i], eb.C[i])
			}
		}
	}
}

func TestM2MIdentityTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ms, ps := randomCluster(rng, 10, 0.3)
	e := NewExpansion(4, vec.V3{X: 1})
	e.AddParticles(ms, ps)
	same := e.TranslateTo(vec.V3{X: 1})
	for i := range e.C {
		if same.C[i] != e.C[i] {
			t.Fatalf("identity translation changed coefficient %d", i)
		}
	}
}

func TestM2MCompositionProperty(t *testing.T) {
	// Translating A→B→C equals translating A→C directly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ms, ps := randomCluster(rng, 15, 0.4)
		e := NewExpansion(5, vec.V3{})
		e.AddParticles(ms, ps)
		b := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		c := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		twoStep := e.TranslateTo(b).TranslateTo(c)
		oneStep := e.TranslateTo(c)
		for i := range oneStep.C {
			d := twoStep.C[i] - oneStep.C[i]
			mag := math.Hypot(real(oneStep.C[i]), imag(oneStep.C[i]))
			if math.Hypot(real(d), imag(d)) > 1e-9*(1+mag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExpansionAddCombines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ms, ps := randomCluster(rng, 30, 0.5)
	whole := NewExpansion(4, vec.V3{})
	whole.AddParticles(ms, ps)
	e1 := NewExpansion(4, vec.V3{})
	e1.AddParticles(ms[:15], ps[:15])
	e2 := NewExpansion(4, vec.V3{})
	e2.AddParticles(ms[15:], ps[15:])
	e1.Add(e2)
	for i := range whole.C {
		d := e1.C[i] - whole.C[i]
		if math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Fatalf("coefficient %d: %v vs %v", i, e1.C[i], whole.C[i])
		}
	}
}

func TestExpansionAddRejectsMismatch(t *testing.T) {
	e := NewExpansion(3, vec.V3{})
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched degree did not panic")
		}
	}()
	e.Add(NewExpansion(2, vec.V3{}))
}

func TestFloatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ms, ps := randomCluster(rng, 20, 0.5)
	e := NewExpansion(4, vec.V3{X: 0.5, Y: -0.25, Z: 1})
	e.AddParticles(ms, ps)
	data := e.Floats()
	if len(data) != SeriesFloats(4) {
		t.Fatalf("payload %d floats, want %d", len(data), SeriesFloats(4))
	}
	back, err := ExpansionFromFloats(4, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Center != e.Center {
		t.Fatalf("centre %v vs %v", back.Center, e.Center)
	}
	for i := range e.C {
		if back.C[i] != e.C[i] {
			t.Fatalf("coefficient %d mismatch", i)
		}
	}
	if _, err := ExpansionFromFloats(3, data); err == nil {
		t.Fatal("wrong-degree payload accepted")
	}
}

func TestEvalPotentialIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms, ps := randomCluster(rng, 20, 0.4)
	e := NewExpansion(5, vec.V3{})
	e.AddParticles(ms, ps)
	targets := []vec.V3{{X: 2}, {Y: -3}, {X: 1, Y: 1, Z: 1.5}}
	got := e.EvalPotentialInto(nil, targets)
	// A caller's scratch may be longer than the expansion needs and hold
	// another evaluation's harmonics.
	irr := make([]complex128, 2*len(e.C))
	for i, p := range targets {
		want := e.EvalPotential(p)
		if got[i] != want {
			t.Fatalf("target %d: %v vs %v", i, got[i], want)
		}
		if with := e.EvalPotentialScratch(p, irr); with != want {
			t.Fatalf("target %d with scratch: %v vs %v", i, with, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { e.EvalPotentialScratch(targets[0], irr) }); allocs != 0 {
		t.Fatalf("EvalPotentialScratch allocates %v times", allocs)
	}
}

func TestExpansionTruncationErrorScalesLikePowerLaw(t *testing.T) {
	// Error at degree k should scale roughly like (a/r)^(k+1); doubling the
	// distance should shrink the degree-3 error by about 2^4.
	rng := rand.New(rand.NewSource(8))
	ms, ps := randomCluster(rng, 50, 0.5)
	e := NewExpansion(3, vec.V3{})
	e.AddParticles(ms, ps)
	errAt := func(r float64) float64 {
		at := vec.V3{X: r, Y: 0.3 * r, Z: -0.2 * r}
		exact := directPotential(at, ms, ps)
		return math.Abs(e.EvalPotential(at)-exact) / math.Abs(exact)
	}
	e1 := errAt(2.0)
	e2 := errAt(4.0)
	ratio := e1 / e2
	if ratio < 4 { // should be ≈ 16; demand at least 4
		t.Fatalf("truncation error ratio = %v (errors %v, %v)", ratio, e1, e2)
	}
}

func TestResetAndClone(t *testing.T) {
	e := NewExpansion(2, vec.V3{X: 1})
	e.AddParticle(1, vec.V3{X: 1.1})
	c := e.Clone()
	e.Reset()
	if e.Mass() != 0 {
		t.Fatal("Reset did not zero moments")
	}
	if c.Mass() != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestNegativeDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewExpansion(-1) did not panic")
		}
	}()
	NewExpansion(-1, vec.V3{})
}
