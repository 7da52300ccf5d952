// Package partition implements the domain-decomposition side of the three
// parallel formulations:
//
//   - a static grid of r = rx·ry·rz clusters with the gray-code scatter
//     (modular) assignment — the SPSA scheme;
//   - Morton ordering of the clusters plus load-proportional contiguous
//     runs — the SPDA scheme's dynamic assignment;
//   - equal-count cuts of the Morton key order — the DPDA scheme's first
//     zones, before parbh's costzones walk has loads to cut by.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Grid is a static decomposition of the domain into rx × ry × rz equal
// box-shaped clusters (the paper's r subdomains).
type Grid struct {
	Domain     vec.Box
	RX, RY, RZ int
}

// NewGrid validates and returns a cluster grid.
func NewGrid(domain vec.Box, rx, ry, rz int) (*Grid, error) {
	if rx <= 0 || ry <= 0 || rz <= 0 {
		return nil, fmt.Errorf("partition: invalid grid %dx%dx%d", rx, ry, rz)
	}
	if domain.Size().X <= 0 || domain.Size().Y <= 0 || domain.Size().Z <= 0 {
		return nil, fmt.Errorf("partition: degenerate domain %+v", domain)
	}
	return &Grid{Domain: domain, RX: rx, RY: ry, RZ: rz}, nil
}

// NumClusters returns r = rx·ry·rz.
func (g *Grid) NumClusters() int { return g.RX * g.RY * g.RZ }

// Index flattens cluster coordinates.
func (g *Grid) Index(i, j, k int) int { return (k*g.RY+j)*g.RX + i }

// Coords unflattens a cluster index.
func (g *Grid) Coords(idx int) (i, j, k int) {
	i = idx % g.RX
	j = (idx / g.RX) % g.RY
	k = idx / (g.RX * g.RY)
	return
}

// ClusterOf returns the cluster index containing point p (points outside
// the domain clamp to the border clusters).
func (g *Grid) ClusterOf(p vec.V3) int {
	size := g.Domain.Size()
	cl := func(v, lo, sz float64, n int) int {
		i := int((v - lo) / sz * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return g.Index(
		cl(p.X, g.Domain.Min.X, size.X, g.RX),
		cl(p.Y, g.Domain.Min.Y, size.Y, g.RY),
		cl(p.Z, g.Domain.Min.Z, size.Z, g.RZ),
	)
}

// Bucket distributes particles into per-cluster slices.
func (g *Grid) Bucket(ps []dist.Particle) [][]dist.Particle {
	out := make([][]dist.Particle, g.NumClusters())
	for _, p := range ps {
		c := g.ClusterOf(p.Pos)
		out[c] = append(out[c], p)
	}
	return out
}

// MortonOrder returns the cluster indices sorted along the Morton (Z)
// curve of their grid coordinates — the SPDA ordering, "computed in
// advance and stored in a sorted list" (Section 3.3.2).
func (g *Grid) MortonOrder() []int {
	order := make([]int, g.NumClusters())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ja, ka := g.Coords(order[a])
		ib, jb, kb := g.Coords(order[b])
		ma := keys.Encode3(uint32(ia), uint32(ja), uint32(ka))
		mb := keys.Encode3(uint32(ib), uint32(jb), uint32(kb))
		if ma != mb {
			return ma < mb
		}
		return order[a] < order[b]
	})
	return order
}

// HilbertOrder returns the cluster indices sorted along the Peano–Hilbert
// curve — the ordering used by the costzones scheme the paper builds on;
// provided as an ablation alternative to MortonOrder.
func (g *Grid) HilbertOrder() []int {
	bits := uint(1)
	for 1<<bits < g.RX || 1<<bits < g.RY || 1<<bits < g.RZ {
		bits++
	}
	order := make([]int, g.NumClusters())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ja, ka := g.Coords(order[a])
		ib, jb, kb := g.Coords(order[b])
		ha := keys.HilbertEncode3(uint32(ia), uint32(ja), uint32(ka), bits)
		hb := keys.HilbertEncode3(uint32(ib), uint32(jb), uint32(kb), bits)
		if ha != hb {
			return ha < hb
		}
		return order[a] < order[b]
	})
	return order
}

// ScatterAssign returns the SPSA owner of every cluster using the
// gray-code modular mapping. The grid dimensions and p must be powers of
// two with r ≥ p.
func (g *Grid) ScatterAssign(p int) ([]int, error) {
	m, err := keys.NewScatterMap(g.RX, g.RY, g.RZ, p)
	if err != nil {
		return nil, err
	}
	owner := make([]int, g.NumClusters())
	for idx := range owner {
		i, j, k := g.Coords(idx)
		owner[idx] = m.Proc(i, j, k)
	}
	return owner, nil
}

// RunsByLoad cuts an ordered cluster list into p contiguous runs of
// near-equal total load: the SPDA reassignment. loads is indexed by
// cluster id; order is the space-filling-curve order. It returns starts
// of length p+1 with run i = order[starts[i]:starts[i+1]]. Runs follow
// the ideal boundaries i·W/p; a cluster whose load straddles a boundary
// goes to the earlier processor, matching the paper's "import from the
// next processor in the Morton ordering" steady state.
func RunsByLoad(order []int, loads []float64, p int) []int {
	var total float64
	for _, c := range order {
		total += loads[c]
	}
	starts := make([]int, p+1)
	starts[p] = len(order)
	if total <= 0 {
		// Degenerate: split by count.
		for i := 1; i < p; i++ {
			starts[i] = i * len(order) / p
		}
		return starts
	}
	acc := 0.0
	next := 1
	for pos, c := range order {
		acc += loads[c]
		for next < p && acc >= float64(next)*total/float64(p) {
			starts[next] = pos + 1
			next++
		}
	}
	for ; next < p; next++ {
		starts[next] = len(order)
	}
	// Monotonicity guard (degenerate loads can leave empty runs; keep
	// starts sorted).
	for i := 1; i <= p; i++ {
		if starts[i] < starts[i-1] {
			starts[i] = starts[i-1]
		}
	}
	return starts
}

// OwnerFromRuns converts run boundaries back to a per-cluster owner map.
func OwnerFromRuns(order []int, starts []int, numClusters int) []int {
	owner := make([]int, numClusters)
	p := len(starts) - 1
	for proc := 0; proc < p; proc++ {
		for pos := starts[proc]; pos < starts[proc+1]; pos++ {
			owner[order[pos]] = proc
		}
	}
	return owner
}

// Imbalance returns max(procLoad)/mean(procLoad) for the given ownership;
// 1.0 is perfect balance.
func Imbalance(owner []int, loads []float64, p int) float64 {
	per := make([]float64, p)
	var total float64
	for c, o := range owner {
		per[o] += loads[c]
		total += loads[c]
	}
	if total == 0 {
		return 1
	}
	mean := total / float64(p)
	var max float64
	for _, l := range per {
		if l > max {
			max = l
		}
	}
	return max / mean
}

// EqualCountZones splits n particles, given by their key-sorted
// full-resolution Morton keys, into p contiguous zones of near-equal
// count — the bootstrap distribution of the DPDA scheme, before any load
// has been measured. Zone i is the index range [starts[i], starts[i+1])
// and owns the keys [bounds[i], bounds[i+1]) (the last zone to the end of
// the key space). Cuts snap forward past runs of equal keys, so a key is
// never owned by two processors; zones the snapping (or p > n) leaves
// empty get the next zone's bound, and ^0 past the last particle.
func EqualCountZones(ks []uint64, p int) (starts []int, bounds []uint64) {
	n := len(ks)
	starts = make([]int, p+1)
	bounds = make([]uint64, p)
	cut := 0
	for proc := 0; proc < p; proc++ {
		end := (proc + 1) * n / p
		if end < cut {
			end = cut // earlier snapping consumed this zone
		}
		for end > cut && end < n && ks[end] == ks[end-1] {
			end++
		}
		starts[proc] = cut
		if proc > 0 {
			bounds[proc] = ^uint64(0)
			if cut < n {
				bounds[proc] = ks[cut]
			}
		}
		cut = end
	}
	starts[p] = n
	return starts, bounds
}
