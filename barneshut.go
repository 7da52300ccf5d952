// Package barneshut is a Go reproduction of "Scalable parallel
// formulations of the Barnes–Hut method for n-body simulations" (Grama,
// Kumar, Sameh; Supercomputing '94 / Parallel Computing 24, 1998).
//
// It provides:
//
//   - a serial Barnes–Hut octree with monopole forces and degree-k
//     multipole (solid-harmonic) potentials;
//   - the paper's three parallel formulations — SPSA, SPDA and DPDA — on
//     a simulated message-passing multicomputer with nCUBE2 and CM5 cost
//     profiles, all based on the function-shipping paradigm, plus the
//     data-shipping baseline they are compared against and a
//     locally-essential-tree (LET) engine that trades one bulk exchange
//     per step for fully local traversals;
//   - particle distribution generators (Plummer, Gaussian families) and
//     an O(n²) direct-summation ground truth;
//   - a Simulation type that advances a particle system through time with
//     a symplectic leapfrog integrator driven by any of the formulations.
//
// The import path of this package is "repro".
package barneshut

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/obsv"
	"repro/internal/parbh"
	"repro/internal/vec"
)

// Re-exported core types. The library's public surface lives in this
// package; the internal packages are implementation detail.
type (
	// V3 is a 3-component vector.
	V3 = vec.V3
	// Box is an axis-aligned box.
	Box = vec.Box
	// Particle is a point mass with position and velocity.
	Particle = dist.Particle
	// ParticleSet is a particle collection plus its simulation domain.
	ParticleSet = dist.Set
	// GaussianSpec describes one Gaussian cluster for NewGaussians.
	GaussianSpec = dist.GaussianSpec
	// Scheme selects the parallel formulation (SPSA, SPDA, DPDA).
	Scheme = parbh.Scheme
	// Mode selects force vs potential computation.
	Mode = parbh.Mode
	// Shipping selects function- vs data-shipping.
	Shipping = parbh.Shipping
	// Lookup selects the branch-node lookup structure.
	Lookup = parbh.Lookup
	// Ordering selects the space-filling curve for dynamic assignment.
	Ordering = parbh.Ordering
	// TreeBuild selects the top-tree construction variant.
	TreeBuild = parbh.TreeBuild
	// StepResult reports one parallel time-step (timings, efficiency,
	// phase breakdown, interaction statistics, communication volume).
	StepResult = parbh.Result
	// MachineProfile holds the simulated machine's cost constants.
	MachineProfile = msg.CostProfile
	// Tracer records per-rank trace events on the simulated and host
	// clocks; export with WriteChrome for Perfetto. See internal/obsv.
	Tracer = obsv.Tracer
	// LoadProfile summarizes a step's per-rank work distribution.
	LoadProfile = obsv.LoadProfile
)

// NewTracer returns a tracer ready to attach with Simulation.SetTracer.
func NewTracer() *Tracer { return obsv.New() }

// ProfileWork computes a load-imbalance profile from per-rank work
// measurements such as StepResult.RankForce.
func ProfileWork(work []float64) LoadProfile { return obsv.ProfileWork(work) }

// Parallel formulation selectors.
const (
	// SPSA is static partitioning, static (gray-code scatter) assignment.
	SPSA = parbh.SPSA
	// SPDA is static partitioning, dynamic (Morton-run) assignment.
	SPDA = parbh.SPDA
	// DPDA is dynamic partitioning (costzones), dynamic assignment.
	DPDA = parbh.DPDA
)

// Computation modes.
const (
	// ForceMode computes monopole force vectors.
	ForceMode = parbh.ForceMode
	// PotentialMode computes degree-k multipole potentials.
	PotentialMode = parbh.PotentialMode
)

// Communication paradigms.
const (
	// FunctionShipping ships particles to the data (the paper's schemes).
	FunctionShipping = parbh.FunctionShipping
	// DataShipping fetches tree nodes to the computation (the baseline),
	// each remote cell at most once per step. Bit-identical to
	// FunctionShipping.
	DataShipping = parbh.DataShipping
	// DataShippingNaive is data shipping without request coalescing: every
	// blocked visit is a fetch, as in the naive baseline the paper argues
	// against. Bit-identical to FunctionShipping.
	DataShippingNaive = parbh.DataShippingNaive
	// LETShipping assembles a locally essential tree per rank with one
	// bulk exchange per step, then evaluates forces entirely locally.
	// Bit-identical to FunctionShipping.
	LETShipping = parbh.LETShipping
)

// Branch lookup structures (Section 4.2.3).
const (
	// HashLookup locates branch nodes through a hash table.
	HashLookup = parbh.HashLookup
	// SortedLookup binary-searches a sorted key table.
	SortedLookup = parbh.SortedLookup
)

// Cluster orderings for dynamic assignment.
const (
	// MortonOrdering is the paper's Z-curve ordering.
	MortonOrdering = parbh.MortonOrdering
	// HilbertOrdering is the Peano–Hilbert alternative.
	HilbertOrdering = parbh.HilbertOrdering
)

// Top-tree construction variants (Section 3.1).
const (
	// BroadcastBuild rebuilds the top tree redundantly everywhere.
	BroadcastBuild = parbh.BroadcastBuild
	// NonReplicatedBuild computes each top cell once at a designated owner.
	NonReplicatedBuild = parbh.NonReplicatedBuild
)

// Phase names of StepResult.Phases (the rows of the paper's Table 3).
const (
	PhaseMigrate   = parbh.PhaseMigrate
	PhaseLocalTree = parbh.PhaseLocalTree
	PhaseTreeMerge = parbh.PhaseTreeMerge
	PhaseBroadcast = parbh.PhaseBroadcast
	PhaseLET       = parbh.PhaseLET
	PhaseForce     = parbh.PhaseForce
	PhaseLoadBal   = parbh.PhaseLoadBal
)

// NCube2 returns the simulated cost profile of the paper's 256-processor
// nCUBE2 (hypercube network, ~2 Mflop/s nodes).
func NCube2() MachineProfile { return msg.NCube2() }

// CM5 returns the simulated cost profile of the paper's 256-processor
// CM5 (fat-tree network, faster nodes).
func CM5() MachineProfile { return msg.CM5() }

// IdealMachine returns a profile with free communication, useful for
// algorithm-only runs and tests.
func IdealMachine() MachineProfile { return msg.Ideal() }

// ParseScheme returns the scheme whose String is name, ignoring case.
func ParseScheme(name string) (Scheme, error) {
	return parseName("scheme", name, Scheme.String, SPSA, SPDA, DPDA)
}

// ParseMode returns the mode whose String is name, ignoring case.
func ParseMode(name string) (Mode, error) {
	return parseName("mode", name, Mode.String, ForceMode, PotentialMode)
}

// ParseShipping returns the strategy whose String is name, ignoring case;
// the empty name is the default, FunctionShipping.
func ParseShipping(name string) (Shipping, error) {
	if name == "" {
		return FunctionShipping, nil
	}
	return parseName("shipping", name, Shipping.String, FunctionShipping, DataShipping, DataShippingNaive, LETShipping)
}

// ParseMachine returns the profile whose Name is name, ignoring case.
func ParseMachine(name string) (MachineProfile, error) {
	return parseName("machine", name, func(p MachineProfile) string { return p.Name }, NCube2(), CM5(), IdealMachine())
}

// parseName returns the value of all whose name(v) is s, ignoring case,
// or an error that lists the lower-case names.
func parseName[T any](what, s string, name func(T) string, all ...T) (T, error) {
	names := make([]string, len(all))
	for i, v := range all {
		if strings.EqualFold(name(v), s) {
			return v, nil
		}
		names[i] = strings.ToLower(name(v))
	}
	list := strings.Join(names, " or ")
	if len(names) > 2 {
		list = strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", what, s, list)
}

// NewPlummer generates an n-particle Plummer sphere in virial equilibrium
// with scale radius a centred at center (the paper's p_* datasets).
func NewPlummer(n int, a float64, center V3, seed int64) *ParticleSet {
	return dist.Plummer(n, a, center, seed)
}

// NewGaussians generates a superposition of Gaussian clusters inside
// domain (the paper's g_* and s_*g_* datasets).
func NewGaussians(specs []GaussianSpec, domain Box, seed int64) *ParticleSet {
	return dist.Gaussians(specs, domain, seed)
}

// NewUniform generates n uniformly distributed particles in box.
func NewUniform(n int, box Box, seed int64) *ParticleSet {
	return dist.Uniform(n, box, seed)
}

// NewNamed regenerates one of the paper's named datasets ("plummer",
// "g", "g2", "s_1g_a", "s_1g_b", "s_10g_a", "s_10g_b", "uniform") at an
// arbitrary particle count.
func NewNamed(name string, n int, seed int64) (*ParticleSet, error) {
	return dist.Named(name, n, seed)
}
