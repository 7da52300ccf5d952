// Package parbh implements the paper's contribution: three scalable
// parallel formulations of the Barnes–Hut method on a message-passing
// machine —
//
//   - SPSA: static partitioning of the domain into r > p clusters with a
//     static gray-code (modular scatter) assignment of clusters to
//     processors (Section 3.3.1);
//   - SPDA: the same static clusters with a dynamic assignment along the
//     Morton ordering of cluster coordinates, rebalanced from measured
//     loads after every time-step (Section 3.3.2);
//   - DPDA: dynamic partitioning — a message-passing costzones over the
//     tree's per-node interaction counts, with particles moved by a
//     single all-to-all personalized communication (Section 3.3.3).
//
// All three are function-shipping formulations (Section 3.2): when a
// traversal cannot accept a remote branch node under the multipole
// acceptance criterion, the particle's coordinates are shipped to the
// processor owning that subtree, which computes the entire subtree's
// contribution and ships the force or potential back. Particles are
// batched in fixed-size bins with at most one outstanding bin per
// source–destination pair. A data-shipping engine (remote children are
// fetched and cached, the owner-computes rule) is provided as the
// baseline the paper argues against in Section 4.2.
package parbh

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Scheme selects the parallel formulation.
type Scheme int

const (
	// SPSA is static partitioning, static assignment.
	SPSA Scheme = iota
	// SPDA is static partitioning, dynamic (Morton-run) assignment.
	SPDA
	// DPDA is dynamic partitioning (costzones), dynamic assignment.
	DPDA
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SPSA:
		return "SPSA"
	case SPDA:
		return "SPDA"
	case DPDA:
		return "DPDA"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Mode selects what the force-computation phase evaluates.
type Mode int

const (
	// ForceMode computes monopole (centre-of-mass) force vectors, as in
	// the paper's Section 5.1 experiments.
	ForceMode Mode = iota
	// PotentialMode computes scalar potentials from degree-k multipole
	// series, as in Section 5.2.
	PotentialMode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ForceMode {
		return "force"
	}
	return "potential"
}

// Shipping selects the communication paradigm.
type Shipping int

const (
	// FunctionShipping ships particle coordinates to the data (the
	// paper's schemes).
	FunctionShipping Shipping = iota
	// DataShipping fetches remote tree nodes to the computation (the
	// prior art the paper compares against), deduplicating requests so
	// each remote cell is fetched at most once per step.
	DataShipping
	// DataShippingNaive is the per-visit data-shipping baseline of the
	// paper's Section 4.2: every blocked traversal visit issues its own
	// fetch, with no request coalescing. Same physics, strictly more
	// communication.
	DataShippingNaive
	// LETShipping prefetches each peer's locally essential tree in one
	// bulk exchange per step (Dubinski), then traverses purely locally,
	// host-parallel within the rank.
	LETShipping
)

// String implements fmt.Stringer.
func (s Shipping) String() string {
	switch s {
	case FunctionShipping:
		return "function"
	case DataShipping:
		return "data"
	case DataShippingNaive:
		return "data-naive"
	case LETShipping:
		return "let"
	}
	return fmt.Sprintf("Shipping(%d)", int(s))
}

// Lookup selects how served processors locate branch nodes from keys
// (Section 4.2.3 implements and compares both).
type Lookup int

const (
	// HashLookup resolves branch keys through a hash table.
	HashLookup Lookup = iota
	// SortedLookup binary-searches a sorted key table.
	SortedLookup
)

// Ordering selects the space-filling curve for dynamic assignment.
type Ordering int

const (
	// MortonOrdering is the paper's Z-curve cluster ordering.
	MortonOrdering Ordering = iota
	// HilbertOrdering is the Peano–Hilbert alternative used by costzones.
	HilbertOrdering
)

// TreeBuild selects the top-tree construction variant of Section 3.1.
type TreeBuild int

const (
	// BroadcastBuild all-to-all broadcasts branch nodes and rebuilds the
	// top tree redundantly on every processor (Section 3.1.1).
	BroadcastBuild TreeBuild = iota
	// NonReplicatedBuild sends branch nodes to designated parent owners
	// which compute each top node once, followed by a broadcast of the
	// finished top levels (Section 3.1.2).
	NonReplicatedBuild
)

// Config parameterizes a parallel Barnes–Hut engine.
type Config struct {
	Scheme Scheme
	Mode   Mode
	// Alpha is the multipole acceptance parameter.
	Alpha float64
	// Degree is the multipole degree for PotentialMode (ignored for
	// ForceMode, which uses monopoles).
	Degree int
	// Eps is the Plummer softening for ForceMode.
	Eps float64
	// LeafCap is the paper's s parameter (particles per leaf).
	LeafCap int
	// GridLog2 sets the static cluster grid to 2^GridLog2 per dimension
	// for SPSA/SPDA (r = 8^GridLog2 clusters). Cluster cells must be
	// octree cells, hence the power-of-two constraint.
	GridLog2 int
	// BinSize is the number of particles per function-shipping bin
	// (the paper uses 100).
	BinSize int
	// Shipping selects function- vs data-shipping.
	Shipping Shipping
	// BranchLookup selects the branch-node lookup structure.
	BranchLookup Lookup
	// Ordering selects Morton vs Hilbert cluster ordering for SPDA.
	Ordering Ordering
	// TreeBuild selects the top-tree construction variant.
	TreeBuild TreeBuild
	// Root is the root cell; zero gives the cube around the particle
	// set's domain. A restore passes the root cell of the run it resumes,
	// which re-cubing could move by an ulp.
	Root vec.Box
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.67
	}
	if c.LeafCap == 0 {
		c.LeafCap = tree.DefaultLeafCap
	}
	if c.GridLog2 == 0 {
		c.GridLog2 = 3 // 8×8×8 = 512 clusters
	}
	if c.BinSize == 0 {
		c.BinSize = 100
	}
	if c.Mode == PotentialMode && c.Degree == 0 {
		c.Degree = 4
	}
	return c
}

// degreeOrMonopole returns the effective degree used for flop accounting.
func (c Config) degreeOrMonopole() int {
	if c.Mode == PotentialMode {
		return c.Degree
	}
	return 0
}

// Result reports one parallel time-step.
type Result struct {
	// Accels holds per-particle accelerations indexed by particle ID
	// (ForceMode only).
	Accels []vec.V3
	// Potentials holds per-particle potentials indexed by particle ID
	// (PotentialMode only).
	Potentials []float64

	// SimTime is the simulated parallel completion time in seconds
	// (max over processors of modelled compute + communication).
	SimTime float64
	// SeqTime is the projected serial time for the same computation on
	// one processor of the simulated machine, obtained the way the paper
	// does it: from the per-MAC and per-interaction flop counts.
	SeqTime float64
	// Efficiency = SeqTime / (p · SimTime).
	Efficiency float64
	// Speedup = SeqTime / SimTime.
	Speedup float64

	// Phases holds the simulated seconds spent in each phase, keyed as in
	// the paper's Table 3; PhaseOrder preserves presentation order.
	Phases     map[string]float64
	PhaseOrder []string

	// Stats aggregates interaction counts across processors.
	Stats tree.Stats
	// ProcStats is the per-processor machine accounting.
	ProcStats []msg.Stats
	// CommWords is the total number of 8-byte words communicated.
	CommWords int64
	// CommMessages is the total number of messages.
	CommMessages int64
	// Imbalance is max/mean of the per-processor force-phase compute time.
	Imbalance float64
	// RankForce is the per-rank force-phase compute time Imbalance is
	// derived from — the per-step load histogram the observability layer
	// profiles. Indexed by rank; filled for remote ranks too on a
	// distributed machine.
	RankForce []float64
	// BranchNodes is the total number of branch nodes across processors.
	BranchNodes int
	// LETCacheHits is always 0; it leaves with the ledger's
	// let.cache_hits_per_step column (ROADMAP item 1's benchmark/ PR).
	LETCacheHits int64
}

// Phase name constants (the rows of the paper's Table 3, plus the
// ownership-enforcement exchange that precedes tree construction).
const (
	PhaseMigrate   = "particle migration"
	PhaseLocalTree = "local tree construction"
	PhaseTreeMerge = "tree merging"
	PhaseBroadcast = "all-to-all broadcast"
	PhaseLET       = "LET exchange"
	PhaseForce     = "force computation and tree traversal"
	PhaseLoadBal   = "load balancing"
)
