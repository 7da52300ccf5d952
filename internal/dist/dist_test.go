package dist

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestUniformBasics(t *testing.T) {
	box := vec.NewBox(vec.V3{X: -1, Y: -1, Z: -1}, vec.V3{X: 1, Y: 1, Z: 1})
	s := Uniform(1000, box, 42)
	if s.N() != 1000 {
		t.Fatalf("N = %d", s.N())
	}
	if m := s.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("TotalMass = %v", m)
	}
	for i := range s.Particles {
		if !box.Contains(s.Particles[i].Pos) {
			t.Fatalf("particle %d outside box: %v", i, s.Particles[i].Pos)
		}
		if s.Particles[i].ID != i {
			t.Fatalf("particle %d has ID %d", i, s.Particles[i].ID)
		}
	}
	// Uniform sets are nearly homogeneous.
	if irr := Irregularity(s, 4); irr > 0.5 {
		t.Fatalf("uniform irregularity = %v", irr)
	}
}

func TestUniformDeterministic(t *testing.T) {
	box := vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	a := Uniform(100, box, 7)
	b := Uniform(100, box, 7)
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			t.Fatalf("same seed produced different particle %d", i)
		}
	}
	c := Uniform(100, box, 8)
	same := true
	for i := range a.Particles {
		if a.Particles[i].Pos != c.Particles[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestPlummerProperties(t *testing.T) {
	s := Plummer(4000, 1.0, vec.V3{}, 1)
	if s.N() != 4000 {
		t.Fatalf("N = %d", s.N())
	}
	if m := s.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("TotalMass = %v", m)
	}
	// Centre of mass near the requested centre.
	com := s.CenterOfMass()
	if com.Norm() > 0.25 {
		t.Fatalf("centre of mass drifted: %v", com)
	}
	// Half-mass radius of a Plummer sphere is ≈ 1.30 a.
	var radii []float64
	for i := range s.Particles {
		radii = append(radii, s.Particles[i].Pos.Norm())
	}
	med := median(radii)
	if med < 0.9 || med > 1.8 {
		t.Fatalf("half-mass radius = %v, want ≈1.3", med)
	}
	// Velocities bounded by escape velocity at the centre (sqrt(2) for
	// a=1, G=M=1 at r=0).
	for i := range s.Particles {
		r := s.Particles[i].Pos.Norm()
		vesc := math.Sqrt(2) * math.Pow(r*r+1, -0.25)
		if s.Particles[i].Vel.Norm() > vesc+1e-9 {
			t.Fatalf("particle %d exceeds escape velocity", i)
		}
	}
	// Domain contains every particle.
	for i := range s.Particles {
		if !s.Domain.Contains(s.Particles[i].Pos) {
			t.Fatalf("particle %d outside domain", i)
		}
	}
}

func TestPlummerVirialBalance(t *testing.T) {
	// For an equilibrium Plummer model 2T/|U| ≈ 1. Use the analytic
	// potential energy U = -3π/32 (G=M=a=1) to avoid an O(n²) sum.
	s := Plummer(8000, 1.0, vec.V3{}, 3)
	var ke float64
	for i := range s.Particles {
		ke += 0.5 * s.Particles[i].Mass * s.Particles[i].Vel.Norm2()
	}
	u := 3 * math.Pi / 32
	ratio := 2 * ke / u
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("virial ratio = %v", ratio)
	}
}

func TestGaussians(t *testing.T) {
	dom := vec.NewBox(vec.V3{}, vec.V3{X: 100, Y: 100, Z: 100})
	specs := []GaussianSpec{
		{Center: vec.V3{X: 25, Y: 25, Z: 25}, Sigma: 2, N: 500},
		{Center: vec.V3{X: 75, Y: 75, Z: 75}, Sigma: 2, N: 500},
	}
	s := Gaussians(specs, dom, 5)
	if s.N() != 1000 {
		t.Fatalf("N = %d", s.N())
	}
	for i := range s.Particles {
		if !dom.Contains(s.Particles[i].Pos) {
			t.Fatalf("particle %d escaped domain", i)
		}
	}
	// First half clusters near the first centre.
	var d float64
	for i := 0; i < 500; i++ {
		d += s.Particles[i].Pos.Dist(specs[0].Center)
	}
	if avg := d / 500; avg > 5*specs[0].Sigma {
		t.Fatalf("first cluster mean distance = %v", avg)
	}
}

func TestGaussianClippedCluster(t *testing.T) {
	// A cluster centred outside the domain must still terminate (clamping
	// path) and keep all particles inside.
	dom := vec.NewBox(vec.V3{}, vec.V3{X: 10, Y: 10, Z: 10})
	s := Gaussians([]GaussianSpec{{Center: vec.V3{X: -50, Y: 5, Z: 5}, Sigma: 0.1, N: 50}}, dom, 1)
	for i := range s.Particles {
		if !dom.Contains(s.Particles[i].Pos) {
			t.Fatalf("clipped particle %d outside domain", i)
		}
	}
}

func TestNamedDatasets(t *testing.T) {
	names := []string{"uniform", "plummer", "g", "g2", "s_1g_a", "s_1g_b", "s_10g_a", "s_10g_b"}
	for _, name := range names {
		s, err := Named(name, 1000, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.N() != 1000 {
			t.Fatalf("%s: N = %d", name, s.N())
		}
		if m := s.TotalMass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("%s: mass = %v", name, m)
		}
	}
	if _, err := Named("nope", 10, 0); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestIrregularityOrdering(t *testing.T) {
	// The paper's irregularity ordering: s_1g_a (one tight Gaussian) is
	// more irregular than s_10g_a (ten Gaussians), which is more irregular
	// than uniform; the _b variants are milder than the _a variants.
	n := 4000
	irr := func(name string) float64 {
		return Irregularity(MustNamed(name, n, 11), 8)
	}
	u := irr("uniform")
	a1 := irr("s_1g_a")
	b1 := irr("s_1g_b")
	a10 := irr("s_10g_a")
	if !(a1 > a10 && a10 > u) {
		t.Fatalf("irregularity ordering violated: s_1g_a=%v s_10g_a=%v uniform=%v", a1, a10, u)
	}
	if b1 >= a1 {
		t.Fatalf("s_1g_b (%v) should be milder than s_1g_a (%v)", b1, a1)
	}
}

func TestMustNamedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNamed with bad name did not panic")
		}
	}()
	MustNamed("bogus", 1, 0)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
