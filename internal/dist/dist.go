// Package dist generates the particle distributions used in the paper's
// experimental evaluation: Plummer spheres (the p_* datasets), single and
// multiple Gaussian clusters of controlled variance (the g_* and s_*g_*
// datasets), and uniform boxes. All generators are deterministic given a
// seed so experiments are reproducible.
package dist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Particle is a point mass with position and velocity. ID is the particle's
// index in the original generation order; parallel schemes permute
// particles across processors and use ID to report results in a stable
// order.
type Particle struct {
	ID   int
	Mass float64
	Pos  vec.V3
	Vel  vec.V3
}

// Set is a collection of particles together with the domain box the
// simulation runs in.
type Set struct {
	Particles []Particle
	Domain    vec.Box
}

// N returns the number of particles.
func (s *Set) N() int { return len(s.Particles) }

// TotalMass returns the sum of particle masses.
func (s *Set) TotalMass() float64 {
	var m float64
	for i := range s.Particles {
		m += s.Particles[i].Mass
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (s *Set) CenterOfMass() vec.V3 {
	var com vec.V3
	var m float64
	for i := range s.Particles {
		com = com.Add(s.Particles[i].Pos.Scale(s.Particles[i].Mass))
		m += s.Particles[i].Mass
	}
	if m == 0 {
		return vec.V3{}
	}
	return com.Scale(1 / m)
}

// Positions returns the particle positions as a fresh slice.
func (s *Set) Positions() []vec.V3 {
	ps := make([]vec.V3, len(s.Particles))
	for i := range s.Particles {
		ps[i] = s.Particles[i].Pos
	}
	return ps
}

// standard domain used by the paper's synthetic s_* datasets.
func standardDomain() vec.Box {
	return vec.NewBox(vec.V3{}, vec.V3{X: 100, Y: 100, Z: 100})
}

// Uniform returns n particles of unit total mass placed uniformly at
// random in the given box, at rest.
func Uniform(n int, box vec.Box, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Domain: box, Particles: make([]Particle, n)}
	size := box.Size()
	for i := range s.Particles {
		s.Particles[i] = Particle{
			ID:   i,
			Mass: 1.0 / float64(n),
			Pos: vec.V3{
				X: box.Min.X + rng.Float64()*size.X,
				Y: box.Min.Y + rng.Float64()*size.Y,
				Z: box.Min.Z + rng.Float64()*size.Z,
			},
		}
	}
	return s
}

// Plummer returns an n-particle Plummer sphere with scale radius a,
// centred at center, following the standard Aarseth–Henon–Wielen
// rejection sampling. Velocities are drawn from the isotropic Plummer
// distribution function so the model is in virial equilibrium (G = 1,
// total mass 1). The paper's p_* datasets are Plummer models.
func Plummer(n int, a float64, center vec.V3, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Particles: make([]Particle, n)}
	for i := 0; i < n; i++ {
		// Radius from the cumulative mass profile: M(r) ∝ r³/(r²+a²)^(3/2).
		// Clamp the mass fraction away from 1 to avoid unbounded radii.
		x := rng.Float64()*0.999 + 1e-10
		r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		pos := randomDirection(rng).Scale(r)

		// Velocity via von Neumann rejection on g(q) = q²(1-q²)^(7/2).
		var q float64
		for {
			q = rng.Float64()
			g := rng.Float64() * 0.1
			if g < q*q*math.Pow(1-q*q, 3.5) {
				break
			}
		}
		vesc := math.Sqrt(2) * math.Pow(r*r+a*a, -0.25)
		vel := randomDirection(rng).Scale(q * vesc)

		s.Particles[i] = Particle{ID: i, Mass: 1.0 / float64(n), Pos: pos.Add(center), Vel: vel}
	}
	s.Domain = vec.BoundingBox(s.Positions()).Expand(a).Cube()
	return s
}

// randomDirection returns a unit vector uniformly distributed on the
// sphere.
func randomDirection(rng *rand.Rand) vec.V3 {
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	r := math.Sqrt(1 - z*z)
	return vec.V3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: z}
}

// GaussianSpec describes one Gaussian cluster: its centre, the standard
// deviation of each coordinate, and the number of particles it receives.
type GaussianSpec struct {
	Center vec.V3
	Sigma  float64
	N      int
}

// Gaussians generates a superposition of Gaussian clusters inside domain.
// Particles falling outside the domain are resampled so the domain box is
// authoritative. Total mass is 1. This regenerates the paper's g_* and
// s_*g_* families.
func Gaussians(specs []GaussianSpec, domain vec.Box, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, sp := range specs {
		total += sp.N
	}
	s := &Set{Domain: domain, Particles: make([]Particle, 0, total)}
	id := 0
	for _, sp := range specs {
		for i := 0; i < sp.N; i++ {
			var p vec.V3
			for tries := 0; ; tries++ {
				p = vec.V3{
					X: sp.Center.X + rng.NormFloat64()*sp.Sigma,
					Y: sp.Center.Y + rng.NormFloat64()*sp.Sigma,
					Z: sp.Center.Z + rng.NormFloat64()*sp.Sigma,
				}
				if domain.Contains(p) {
					break
				}
				if tries > 1000 {
					// Cluster badly clipped by the domain: clamp instead of
					// looping forever.
					p = p.Max(domain.Min).Min(domain.Max)
					break
				}
			}
			s.Particles = append(s.Particles, Particle{ID: id, Mass: 1.0 / float64(total), Pos: p})
			id++
		}
	}
	return s
}

// Named regenerates the paper's named datasets at an arbitrary particle
// count. The paper names instances g_n (Gaussian), p_n (Plummer) and the
// four irregularity-controlled sets of Table 4:
//
//	s_1g_a  — one Gaussian, particles within a 2×2×2 subdomain of 100³
//	s_1g_b  — one Gaussian, 4×4×4 subdomain (lower variance ⇒ milder)
//	s_10g_a — ten Gaussians, each within 2×2×2
//	s_10g_b — ten Gaussians, each within 4×4×4
//
// "within a d×d×d subdomain" is realized as σ = d/4 so ±2σ spans the
// subdomain. Unknown names return an error.
func Named(name string, n int, seed int64) (*Set, error) {
	dom := standardDomain()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	center := func() vec.V3 {
		// Random centre away from the walls so the cluster fits.
		return vec.V3{
			X: 10 + 80*rng.Float64(),
			Y: 10 + 80*rng.Float64(),
			Z: 10 + 80*rng.Float64(),
		}
	}
	switch name {
	case "uniform":
		return Uniform(n, dom, seed), nil
	case "plummer", "p":
		return Plummer(n, 1.0, vec.V3{}, seed), nil
	case "g", "gaussian", "g1":
		return Gaussians([]GaussianSpec{{Center: center(), Sigma: 5, N: n}}, dom, seed), nil
	case "g2":
		// The paper's g_1192768 contains two Gaussian distributions.
		h := n / 2
		return Gaussians([]GaussianSpec{
			{Center: center(), Sigma: 5, N: h},
			{Center: center(), Sigma: 5, N: n - h},
		}, dom, seed), nil
	case "s_1g_a":
		return Gaussians([]GaussianSpec{{Center: center(), Sigma: 0.5, N: n}}, dom, seed), nil
	case "s_1g_b":
		return Gaussians([]GaussianSpec{{Center: center(), Sigma: 1.0, N: n}}, dom, seed), nil
	case "s_10g_a", "s_10g_b":
		sigma := 0.5
		if name == "s_10g_b" {
			sigma = 1.0
		}
		specs := make([]GaussianSpec, 10)
		per := n / 10
		for i := range specs {
			cnt := per
			if i == 9 {
				cnt = n - 9*per
			}
			specs[i] = GaussianSpec{Center: center(), Sigma: sigma, N: cnt}
		}
		return Gaussians(specs, dom, seed), nil
	}
	return nil, fmt.Errorf("dist: unknown dataset %q", name)
}

// MustNamed is Named but panics on error; convenient in benchmarks and
// examples where the name is a compile-time constant.
func MustNamed(name string, n int, seed int64) *Set {
	s, err := Named(name, n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Irregularity returns a simple measure of how unevenly the particles
// fill the domain: the coefficient of variation (σ/μ) of per-cell counts
// over a g³ grid. Uniform sets score near 0; concentrated Gaussians score
// high. Used by tests and by the experiment harness to label datasets.
func Irregularity(s *Set, g int) float64 {
	counts := make([]int, g*g*g)
	size := s.Domain.Size()
	for i := range s.Particles {
		p := s.Particles[i].Pos
		cx := cellIndex(p.X, s.Domain.Min.X, size.X, g)
		cy := cellIndex(p.Y, s.Domain.Min.Y, size.Y, g)
		cz := cellIndex(p.Z, s.Domain.Min.Z, size.Z, g)
		counts[(cz*g+cy)*g+cx]++
	}
	mean := float64(len(s.Particles)) / float64(len(counts))
	var varsum float64
	for _, c := range counts {
		d := float64(c) - mean
		varsum += d * d
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(varsum/float64(len(counts))) / mean
}

func cellIndex(v, lo, size float64, g int) int {
	if size <= 0 {
		return 0
	}
	i := int((v - lo) / size * float64(g))
	if i < 0 {
		i = 0
	}
	if i >= g {
		i = g - 1
	}
	return i
}
