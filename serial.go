package barneshut

import (
	"repro/internal/direct"
	"repro/internal/fmm"
	"repro/internal/msg"
	"repro/internal/parfmm"
	"repro/internal/tree"
)

// InteractionStats summarizes the work of a force computation in the
// paper's units: multipole acceptance tests, particle–cluster and
// particle–particle interactions.
type InteractionStats = tree.Stats

// SerialForces computes Barnes–Hut monopole forces for every particle
// with the serial algorithm and returns them indexed by particle ID,
// together with the interaction statistics.
func SerialForces(set *ParticleSet, alpha, eps float64, leafCap int) ([]V3, InteractionStats) {
	tr := tree.Build(set.Particles, tree.Options{LeafCap: leafCap, Domain: set.Domain})
	// The packet sweep is bit-identical to the recursive traversal and
	// faster; one-shot evaluations use it too.
	accls, stats := tr.AccelSweep(set.Particles, alpha, eps)
	out := make([]V3, set.N())
	for i, q := range set.Particles {
		out[q.ID] = accls[i]
	}
	return out, stats
}

// SerialPotentials computes Barnes–Hut degree-k multipole potentials for
// every particle with the serial algorithm, indexed by particle ID.
func SerialPotentials(set *ParticleSet, alpha float64, degree, leafCap int) ([]float64, InteractionStats) {
	tr := tree.Build(set.Particles, tree.Options{LeafCap: leafCap, Domain: set.Domain})
	tr.BuildExpansions(degree)
	pots, stats := tr.PotentialSweep(set.Particles, alpha)
	out := make([]float64, set.N())
	for i, q := range set.Particles {
		out[q.ID] = pots[i]
	}
	return out, stats
}

// FMMConfig parameterizes a fast-multipole potential evaluation.
type FMMConfig = fmm.Config

// FMMStats counts the FMM's kernel invocations (P2M/M2M/M2L/L2L/L2P/P2P).
type FMMStats = fmm.Stats

// FMMPotentials evaluates gravitational potentials with the fast
// multipole method — the O(n) cluster–cluster extension of the treecode
// that the paper's Sections 2 and 6 point to. Results are indexed by
// particle ID.
func FMMPotentials(set *ParticleSet, cfg FMMConfig) ([]float64, FMMStats) {
	return fmm.Potentials(set.Particles, set.Domain, cfg)
}

// FMMAccels evaluates gravitational accelerations with the fast
// multipole method, from the analytic gradients of the local expansions
// (the paper's Section 2: "force is equal to the gradient of potential").
// Results are indexed by particle ID.
func FMMAccels(set *ParticleSet, cfg FMMConfig) ([]V3, FMMStats) {
	return fmm.Accels(set.Particles, set.Domain, cfg)
}

// ParallelFMMConfig parameterizes a parallel FMM evaluation.
type ParallelFMMConfig = parfmm.Config

// ParallelFMMResult reports a parallel FMM evaluation (potentials,
// simulated time, efficiency, communication volume, op counts).
type ParallelFMMResult = parfmm.Result

// ParallelFMMPotentials evaluates gravitational potentials with the
// parallel fast multipole method on a simulated machine of p processors —
// the extension of the paper's function-shipping techniques to the FMM
// its Sections 2 and 6 describe. Far-field cell–cell interactions are
// computed from replicated branch expansions; near-field work ships
// target leaves to the data.
func ParallelFMMPotentials(set *ParticleSet, processors int, profile MachineProfile, cfg ParallelFMMConfig) (*ParallelFMMResult, error) {
	if profile == (MachineProfile{}) {
		profile = NCube2()
	}
	m := msg.NewMachine(processors, profile)
	return parfmm.Run(m, set, cfg)
}

// DirectForces computes exact softened forces by O(n²) summation,
// indexed by particle ID.
func DirectForces(set *ParticleSet, eps float64) []V3 {
	accls := direct.AccelsParallel(set.Particles, eps)
	out := make([]V3, set.N())
	for i, q := range set.Particles {
		out[q.ID] = accls[i]
	}
	return out
}

// DirectPotentials computes exact potentials by O(n²) summation, indexed
// by particle ID.
func DirectPotentials(set *ParticleSet, eps float64) []float64 {
	pots := direct.PotentialsParallel(set.Particles, eps)
	out := make([]float64, set.N())
	for i, q := range set.Particles {
		out[q.ID] = pots[i]
	}
	return out
}
