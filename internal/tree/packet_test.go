package tree

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/vec"
)

// Edge cases of the packet sweep, each against the recursive traversal in
// force mode and in potential mode (flatVsPointerQuery compares
// accelerations and potentials by Float64bits, Stats and every node's Load).

var unitBox = vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}}

func TestPacketBucketsWiderThanAPacket(t *testing.T) {
	// Buckets of more than eight particles are split over several packets
	// and each lane still meets its whole bucket in the leaf tile.
	s := dist.MustNamed("g", 2500, 3)
	for _, leafCap := range []int{9, 20, 64} {
		flatVsPointer(t, s.Particles, s.Domain, 0.67, 0.01, leafCap)
	}
	// 19 coincident particles drive the build to a MaxDepth leaf that no
	// leaf capacity can split; the rest of the set keeps the tree deep.
	ps := append([]dist.Particle(nil), s.Particles[:300]...)
	for i := 0; i < 19; i++ {
		ps = append(ps, dist.Particle{ID: len(ps), Mass: 0.5, Pos: s.Particles[7].Pos})
	}
	for _, eps := range []float64{0.01, 0} {
		flatVsPointer(t, ps, s.Domain, 0.67, eps, 4)
	}
}

func TestPacketSignedZeros(t *testing.T) {
	// eps == 0 with coincident particles takes phys.Accel's r2 == 0 branch
	// (an explicit zero add), a probe exactly on a cell's centre of mass
	// takes the MAC's d == 0 reject, −0 coordinates and negative masses
	// produce −0 products: the sums must keep every sign bit.
	nz := math.Copysign(0, -1)
	ps := []dist.Particle{
		{ID: 0, Mass: 1, Pos: vec.V3{X: 0.5, Y: 0.25, Z: nz}},
		{ID: 1, Mass: 1, Pos: vec.V3{X: -0.5, Y: -0.25, Z: 0}},
		{ID: 2, Mass: 3, Pos: vec.V3{X: nz, Y: 0, Z: nz}}, // on the root's centre of mass
		{ID: 3, Mass: 2, Pos: vec.V3{X: 0.5, Y: 0.25, Z: nz}},
		{ID: 4, Mass: -2, Pos: vec.V3{X: 0.5, Y: nz, Z: 0.75}},
		{ID: 5, Mass: -1, Pos: vec.V3{X: -0.75, Y: nz, Z: 0.75}},
	}
	for _, leafCap := range []int{1, 2, 8} {
		for _, alpha := range []float64{0, 0.67, 3} {
			flatVsPointer(t, ps, unitBox, alpha, 0, leafCap)
			flatVsPointer(t, ps, unitBox, alpha, 0.01, leafCap)
		}
	}
}

func TestPacketRootAcceptedKeepsNegativeZero(t *testing.T) {
	// A negative-mass cluster on the x axis seen from far along it: the
	// root is accepted outright and g·dy = (−)·(+0) = −0. The root's term
	// is the result itself, never 0 + term, so the −0 must survive.
	var ps []dist.Particle
	for i := 0; i < 12; i++ {
		ps = append(ps, dist.Particle{ID: i, Mass: -1, Pos: vec.V3{X: -0.9 + 0.001*float64(i)}})
	}
	probe := []dist.Particle{{ID: 99, Mass: 1, Pos: vec.V3{X: 0.9}}}
	flatVsPointerQuery(t, ps, probe, unitBox, 5, 0.01, 4)
	tr := BuildKeyed(ps, unitBox, 4)
	acc, st := Flatten(tr, nil).AccelAll(probe, 5, 0.01)
	if st.PC != 1 || st.MACTests != 1 {
		t.Fatalf("root not accepted outright: %+v", st)
	}
	if !math.Signbit(acc[0].Y) || acc[0].Y != 0 {
		t.Fatalf("acc.Y = %v, want -0", acc[0].Y)
	}
	// Potential mode: a massless cluster's expansion evaluates to −G·(+0).
	for i := range ps {
		ps[i].Mass = 0
	}
	flatVsPointerQuery(t, ps, probe, unitBox, 5, 0.01, 4)
	tr = BuildKeyed(ps, unitBox, 4)
	tr.BuildExpansions(0)
	pot, st := Flatten(tr, nil).PotentialAll(probe, 5)
	if st.PC != 1 || st.MACTests != 1 {
		t.Fatalf("potential mode: root not accepted outright: %+v", st)
	}
	if !math.Signbit(pot[0]) || pot[0] != 0 {
		t.Fatalf("potential = %v, want -0", pot[0])
	}
}

func TestPacketForeignQuerySet(t *testing.T) {
	s := dist.MustNamed("plummer", 1200, 9)
	rng := rand.New(rand.NewSource(5))
	// Field points that are not in the tree at all.
	var field []dist.Particle
	for i := 0; i < 333; i++ {
		p := s.Particles[rng.Intn(len(s.Particles))]
		p.ID = 5000 + i
		p.Pos.X += 0.01 * rng.NormFloat64()
		field = append(field, p)
	}
	// A shuffled subset, and a set with a duplicated ID.
	subset := append([]dist.Particle(nil), s.Particles[100:700]...)
	rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
	dup := append([]dist.Particle(nil), s.Particles...)
	dup[3] = dup[4]
	// The tree's own IDs at positions the tree has not seen.
	moved := append([]dist.Particle(nil), s.Particles...)
	for i := range moved {
		moved[i].Pos.Y += 1e-3
	}
	for name, q := range map[string][]dist.Particle{"field": field, "subset": subset, "dup": dup, "moved": moved} {
		t.Run(name, func(t *testing.T) {
			flatVsPointerQuery(t, s.Particles, q, s.Domain, 0.67, 0.01, 8)
		})
	}
}

func TestPacketInvariantUnderGOMAXPROCS(t *testing.T) {
	s := dist.MustNamed("g", 3000, 11)
	for _, procs := range []int{1, 2, 7} {
		old := runtime.GOMAXPROCS(procs)
		flatVsPointer(t, s.Particles, s.Domain, 0.67, 0.01, 8)
		runtime.GOMAXPROCS(old)
	}
}

// macExact is the MAC as Accepts computes it.
func macExact(side, n2, alpha float64) bool {
	d := math.Sqrt(n2)
	return d != 0 && side/d < alpha
}

func TestMACPrefilterExact(t *testing.T) {
	check := func(side, n2, alpha float64) {
		t.Helper()
		if got, want := macAccepts(macS2(side), side, n2, macA2(alpha), alpha), macExact(side, n2, alpha); got != want {
			t.Fatalf("side=%b n2=%b alpha=%b: prefilter %v, exact %v", side, n2, alpha, got, want)
		}
	}
	// around walks a few ulps either side of x.
	around := func(x float64, visit func(float64)) {
		lo, hi := x, x
		visit(x)
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			visit(lo)
			visit(hi)
		}
	}
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi float64) float64 { return math.Exp2(lo + (hi-lo)*rng.Float64()) }
	for i := 0; i < 20000; i++ {
		alpha := logUniform(-4, 3)
		side := logUniform(-30, 10)
		n2 := logUniform(-70, 30)
		check(side, n2, alpha)
		// Adversarial: distances within ulps of the acceptance boundary
		// side/√n2 = α, and of the prefilter's own two thresholds.
		d := side / alpha
		for _, b := range []float64{d * d, d * d * macLo, d * d * macHi, d * d / macLo, d * d / macHi} {
			around(b, func(n2 float64) {
				around(side, func(side float64) { check(side, n2, alpha) })
			})
		}
	}
	// Degenerate and out-of-range operands: zero and subnormal distances,
	// subnormal and huge sides, α that is zero, negative, tiny, huge, NaN.
	sides := []float64{0, 5e-324, 1e-310, 0x1p-301, 0x1p-300, 1e-160, 1e-20, 1, 1e20, 0x1p300, 0x1p301, 1e300, math.MaxFloat64}
	n2s := []float64{0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-40, 1, 1e40, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	alphas := []float64{0, -0.67, 5e-324, 1e-300, 0x1p-251, 0x1p-250, 1e-160, 0.67, 1, 1e160, 0x1p250, 0x1p251, 1e300, math.Inf(1), math.NaN()}
	for _, side := range sides {
		for _, n2 := range n2s {
			for _, alpha := range alphas {
				around(n2, func(n2 float64) {
					if n2 >= 0 || n2 != n2 {
						check(side, n2, alpha)
					}
				})
			}
		}
	}
	// Subnormal products straddling a rounding tie: n2 = K and α²·n2 ≈
	// side² ≈ T+½ units of 2⁻¹⁰⁷⁴, where side² and α²·n2 round to
	// different integers although the true ratio is within an ulp of α.
	// An unguarded prefilter decides these wrongly.
	for i := 0; i < 20000; i++ {
		k, tie := float64(1+rng.Intn(4000)), float64(1+rng.Intn(4000))+0.5
		n2 := k * 0x1p-1074
		around(math.Sqrt(tie/k), func(alpha float64) {
			around(math.Sqrt(tie)*0x1p-537, func(side float64) { check(side, n2, alpha) })
		})
	}
	// Subnormal n2 right at the boundary: side = α·√n2.
	for i := 0; i < 20000; i++ {
		alpha := logUniform(-4, 3)
		n2 := math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		side := alpha * math.Sqrt(n2)
		around(side, func(side float64) {
			around(n2, func(n2 float64) {
				if n2 >= 0 {
					check(side, n2, alpha)
				}
			})
		})
	}
}

// addParticles transposes ps onto the particle columns of c and returns
// the range they occupy.
func addParticles(c *Sweep, ps []dist.Particle) (lo, hi int32) {
	lo = int32(len(c.ID))
	for i := range ps {
		p := &ps[i]
		c.ID = append(c.ID, int32(p.ID))
		c.PX = append(c.PX, p.Pos.X)
		c.PY = append(c.PY, p.Pos.Y)
		c.PZ = append(c.PZ, p.Pos.Z)
		c.PM = append(c.PM, p.Mass)
	}
	return lo, int32(len(c.ID))
}

// addSubtree appends the subtree under node n of tr to c as internal and
// leaf nodes and returns its root's index.
func addSubtree(c *Sweep, tr *Tree, n int32) int32 {
	if tr.IsLeaf(n) {
		lo, hi := addParticles(c, tr.Particles(n))
		return c.AddNode(KindLeaf, tr.COM(n), tr.Mass[n], tr.Side[n], tr.Exp[n], lo, hi)
	}
	idx := c.AddNode(KindInternal, tr.COM(n), tr.Mass[n], tr.Side[n], tr.Exp[n], -1, -1)
	for ch := n + 1; ch < tr.Skip[n]; ch = tr.Skip[ch] {
		addSubtree(c, tr, ch)
	}
	c.Skip[idx] = int32(len(c.Kind))
	return idx
}

// TestPacketDeferMatchesForceAllOnLET builds a small locally essential
// tree by hand — the root's octants as branch cells, one local, one a
// remote leaf cell, one remote with two grafted sections, the rest remote
// with one — and checks the packet-at-a-time entry points against the
// drivers, ForceAll and PotentialAll: Defer's lane sums plus, for every
// branch a lane reports deferred, Below over each of its grafts in order
// must rebuild the driver's result bit for bit, with the same extra
// charges, Stats and per-node Load. A potential rides in X.
func TestPacketDeferMatchesForceAllOnLET(t *testing.T) {
	s := dist.MustNamed("uniform", 1300, 21)
	const leafCap, alpha, eps, exAdd, degree = 4, 0.67, 0.01, 2.5, 2
	var byOct [8][]dist.Particle
	for _, p := range s.Particles {
		o := s.Domain.OctantOf(p.Pos)
		byOct[o] = append(byOct[o], p)
	}
	byOct[1] = byOct[1][:leafCap] // the leaf-cell branch
	build := func(ps []dist.Particle, box vec.Box) *Tree {
		tr := BuildKeyed(ps, box, leafCap)
		tr.BuildExpansions(degree)
		return tr
	}
	var sw Sweep
	// Sections first: every remote octant's subtree, octant 2's dealt to
	// two owners.
	grafts := map[int][]int32{}
	for o := 1; o < 8; o++ {
		shares := [][]dist.Particle{byOct[o]}
		if o == 2 {
			h := len(byOct[o]) / 2
			shares = [][]dist.Particle{byOct[o][:h], byOct[o][h:]}
		}
		for _, ps := range shares {
			grafts[o] = append(grafts[o], addSubtree(&sw, build(ps, s.Domain.Octant(o)), 0))
		}
	}
	root := build(s.Particles, s.Domain)
	main := sw.AddNode(KindTop, root.COM(0), root.Mass[0], s.Domain.LongestSide(), root.Exp[0], -1, -1)
	addSubtree(&sw, build(byOct[0], s.Domain.Octant(0)), 0)
	for o := 1; o < 8; o++ {
		cell := build(byOct[o], s.Domain.Octant(o))
		kind := KindBranch
		if o == 1 {
			kind = KindBranchLeaf
		}
		lo := int32(len(sw.Graft))
		sw.Graft = append(sw.Graft, grafts[o]...)
		sw.AddNode(kind, cell.COM(0), cell.Mass[0], s.Domain.Octant(o).LongestSide(), cell.Exp[0], lo, int32(len(sw.Graft)))
	}
	sw.Skip[main] = int32(len(sw.Kind))

	query := byOct[0][:len(byOct[0])/8*8+3] // the last packet is short
	for _, potential := range []bool{false, true} {
		want, wantExtra := make([]vec.V3, len(query)), make([]float64, len(query))
		wantLoads := make([]int64, len(sw.Kind))
		var wantStats Stats
		lane := (*Packet).Sum
		if potential {
			pot := make([]float64, len(query))
			wantStats = sw.PotentialAll(query, main, alpha, exAdd, pot, wantExtra, wantLoads)
			for i, v := range pot {
				want[i].X = v
			}
			lane = func(p *Packet, l int) vec.V3 { return vec.V3{X: p.Pot(l)} }
		} else {
			wantStats = sw.ForceAll(query, main, alpha, eps, exAdd, want, wantExtra, wantLoads)
		}

		var own, served Packet
		var gotStats Stats
		gotLoads := make([]int64, len(sw.Kind))
		sw.Begin(alpha, eps, exAdd, potential)
		deferred := 0
		for k := 0; k < len(query); k += 8 {
			n := min(8, len(query)-k)
			for l, q := range query[k : k+n] {
				own.SetLane(l, int32(q.ID), q.Pos)
			}
			sw.Defer(&own, n, main, gotLoads)
			for l, q := range query[k : k+n] {
				// served is swept while own's lanes are still being read, as
				// function shipping's owner side is.
				acc := lane(&own, l)
				gotStats.Add(own.Stats(l))
				for _, node := range own.Deferred(l, nil) {
					deferred++
					for _, base := range sw.Graft[sw.Lo[node]:sw.Hi[node]] {
						served.SetLane(0, int32(q.ID), q.Pos)
						sw.Below(&served, 1, base, gotLoads)
						acc = acc.Add(lane(&served, 0))
						gotStats.Add(served.Stats(0))
					}
				}
				if i := k + l; math.Float64bits(acc.X) != math.Float64bits(want[i].X) ||
					math.Float64bits(acc.Y) != math.Float64bits(want[i].Y) ||
					math.Float64bits(acc.Z) != math.Float64bits(want[i].Z) || own.Extra(l) != wantExtra[i] {
					t.Fatalf("potential=%v particle %d: Defer+Below %v (extra %v), driver %v (extra %v)", potential, q.ID, acc, own.Extra(l), want[i], wantExtra[i])
				}
			}
		}
		if deferred < 2*len(query) {
			t.Fatalf("potential=%v: only %d deferrals for %d particles", potential, deferred, len(query))
		}
		if gotStats != wantStats || gotStats.PC == 0 {
			t.Fatalf("potential=%v: stats %+v, driver %+v", potential, gotStats, wantStats)
		}
		for i := range wantLoads {
			if gotLoads[i] != wantLoads[i] {
				t.Fatalf("potential=%v node %d: load %d, driver %d", potential, i, gotLoads[i], wantLoads[i])
			}
		}
	}
}

// TestPotentialSweepAllocations: the expansion evaluations of a potential
// sweep share the packet's one harmonics buffer, so a warmed-up packet
// sweeps without allocating however many clusters its lanes accept.
func TestPotentialSweepAllocations(t *testing.T) {
	s := dist.MustNamed("plummer", 4000, 2)
	tr := BuildKeyed(s.Particles, s.Domain, 8)
	tr.BuildExpansions(4)
	var pk Packet
	for l, q := range s.Particles[:8] {
		pk.SetLane(l, int32(q.ID), q.Pos)
	}
	loads := make([]int64, tr.NumNodes())
	var accepted [2]int64
	for k, alpha := range []float64{4, 0.7} {
		sw := tr.sweep()
		sw.Begin(alpha, 0, 0, true)
		sweep := func() { sw.Defer(&pk, 8, 0, loads) }
		sweep()
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
			t.Errorf("α=%v: %v allocations per potential sweep", alpha, allocs)
		}
		for l := 0; l < 8; l++ {
			accepted[k] += pk.Stats(l).PC
		}
	}
	if accepted[0] == 0 || accepted[1] < 4*accepted[0] {
		t.Fatalf("accepted clusters %v: the second sweep should accept several times more", accepted)
	}
}
