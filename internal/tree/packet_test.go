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
func addParticles(c *Cols, ps []dist.Particle) (lo, hi int32) {
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
func addSubtree(c *Cols, tr *Tree, n int32) int32 {
	if tr.IsLeaf(n) {
		lo, hi := addParticles(c, tr.Particles(n))
		return AppendNode(c, KindLeaf, tr.COM(n), tr.Mass[n], tr.Side[n], tr.Exp[n], lo, hi)
	}
	idx := AppendNode(c, KindInternal, tr.COM(n), tr.Mass[n], tr.Side[n], tr.Exp[n], -1, -1)
	for ch := n + 1; ch < tr.Skip[n]; ch = tr.Skip[ch] {
		addSubtree(c, tr, ch)
	}
	c.Skip[idx] = int32(len(c.Kind))
	return idx
}

// segLoads returns zeroed load columns for every segment of sw.
func segLoads(sw *Sweep) [][]int64 {
	loads := [][]int64{make([]int64, len(sw.Kind)), make([]int64, len(sw.Own.Kind))}
	for _, c := range sw.Secs {
		loads = append(loads, make([]int64, len(c.Kind)))
	}
	return loads
}

// handLET builds a small locally essential tree by hand — the root's
// octants as branch cells under a KindTop, one the rank's own (swept in
// its tree), one a remote leaf cell, one remote with two grafted
// sections, the rest remote with one — and returns it with its main root
// and octant 0's particles, the rank's own.
func handLET() (*Sweep, int32, []dist.Particle) {
	s := dist.MustNamed("uniform", 1300, 21)
	const leafCap, degree = 4, 2
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
	sw := new(Sweep)
	// Sections: every remote octant's subtree, octant 2's dealt to two
	// owners, each in columns of its own.
	sw.GraftLo = []int32{0, 0}
	sw.OwnRoot = []int32{0}
	for o := 1; o < 8; o++ {
		shares := [][]dist.Particle{byOct[o]}
		if o == 2 {
			h := len(byOct[o]) / 2
			shares = [][]dist.Particle{byOct[o][:h], byOct[o][h:]}
		}
		for _, ps := range shares {
			sec := new(Cols)
			addSubtree(sec, build(ps, s.Domain.Octant(o)), 0)
			sw.Grafts = append(sw.Grafts, int32(len(sw.Secs)))
			sw.Secs = append(sw.Secs, sec)
		}
		sw.GraftLo = append(sw.GraftLo, int32(len(sw.Grafts)))
		sw.OwnRoot = append(sw.OwnRoot, -1)
	}
	own := build(byOct[0], s.Domain.Octant(0))
	sw.Own = &own.Cols
	root := build(s.Particles, s.Domain)
	main := AppendNode(&sw.Cols, KindTop, root.COM(0), root.Mass[0], s.Domain.LongestSide(), root.Exp[0], -1, -1)
	for o := 0; o < 8; o++ {
		cell := build(byOct[o], s.Domain.Octant(o))
		kind := KindBranch
		if o == 1 {
			kind = KindBranchLeaf
		}
		AppendNode(&sw.Cols, kind, cell.COM(0), cell.Mass[0], s.Domain.Octant(o).LongestSide(), cell.Exp[0], int32(o), -1)
	}
	sw.Skip[main] = int32(len(sw.Kind))
	return sw, main, byOct[0]
}

// TestPacketDeferMatchesForceAllOnLET checks the packet-at-a-time entry
// points on handLET's tree against the drivers, ForceAll and PotentialAll:
// Defer's lane sums plus, for every branch a lane reports deferred, Below
// over each of its grafts in order must rebuild the driver's result bit
// for bit, with the same extra charges, Stats and per-node Load in every
// segment. A potential rides in X.
func TestPacketDeferMatchesForceAllOnLET(t *testing.T) {
	const alpha, eps, exAdd = 0.67, 0.01, 2.5
	sw, main, own := handLET()
	query := own[:len(own)/8*8+3] // the last packet is short
	for _, potential := range []bool{false, true} {
		want, wantExtra := make([]vec.V3, len(query)), make([]float64, len(query))
		wantLoads := segLoads(sw)
		sw.Loads = wantLoads
		var wantStats Stats
		lane := (*Packet).Sum
		if potential {
			pot := make([]float64, len(query))
			wantStats = sw.PotentialAll(query, main, alpha, exAdd, pot, wantExtra)
			for i, v := range pot {
				want[i].X = v
			}
			lane = func(p *Packet, l int) vec.V3 { return vec.V3{X: p.Pot(l)} }
		} else {
			wantStats = sw.ForceAll(query, main, alpha, eps, exAdd, want, wantExtra)
		}

		var mine, served Packet
		var gotStats Stats
		gotLoads := segLoads(sw)
		sw.Loads = gotLoads
		sw.Begin(alpha, eps, exAdd, potential)
		deferred := 0
		for k := 0; k < len(query); k += 8 {
			n := min(8, len(query)-k)
			for l, q := range query[k : k+n] {
				mine.SetLane(l, int32(q.ID), q.Pos)
			}
			sw.Defer(&mine, n, main)
			for l, q := range query[k : k+n] {
				// served is swept while mine's lanes are still being read, as
				// function shipping's owner side is.
				acc := lane(&mine, l)
				gotStats.Add(mine.Stats(l))
				for _, node := range mine.Deferred(l, nil) {
					deferred++
					b := sw.Lo[node]
					for _, sec := range sw.Grafts[sw.GraftLo[b]:sw.GraftLo[b+1]] {
						served.SetLane(0, int32(q.ID), q.Pos)
						sw.Below(&served, 1, SecSeg(int(sec)), 0)
						acc = acc.Add(lane(&served, 0))
						gotStats.Add(served.Stats(0))
					}
				}
				if i := k + l; math.Float64bits(acc.X) != math.Float64bits(want[i].X) ||
					math.Float64bits(acc.Y) != math.Float64bits(want[i].Y) ||
					math.Float64bits(acc.Z) != math.Float64bits(want[i].Z) || mine.Extra(l) != wantExtra[i] {
					t.Fatalf("potential=%v particle %d: Defer+Below %v (extra %v), driver %v (extra %v)", potential, q.ID, acc, mine.Extra(l), want[i], wantExtra[i])
				}
			}
		}
		if deferred < 2*len(query) {
			t.Fatalf("potential=%v: only %d deferrals for %d particles", potential, deferred, len(query))
		}
		if gotStats != wantStats || gotStats.PC == 0 {
			t.Fatalf("potential=%v: stats %+v, driver %+v", potential, gotStats, wantStats)
		}
		charged := false
		for g := range wantLoads {
			for i := range wantLoads[g] {
				if gotLoads[g][i] != wantLoads[g][i] {
					t.Fatalf("potential=%v segment %d node %d: load %d, driver %d", potential, g, i, gotLoads[g][i], wantLoads[g][i])
				}
				charged = charged || (g == int(SegOwn) && wantLoads[g][i] != 0)
			}
		}
		if !charged {
			t.Fatalf("potential=%v: nothing charged in the own tree", potential)
		}
	}
}

// TestPacketStub sweeps a section whose first internal child is a stub
// against the same section with that child's subtree in place, one lane
// at a time, in force mode and in potential mode. A lane that accepts the
// stub must leave what the whole section leaves — its sum to the bit, its
// Stats, and every node's Load, the stub charged as the internal node is —
// and a lane that rejects it must report it, and only it, as deferred.
func TestPacketStub(t *testing.T) {
	s := dist.MustNamed("uniform", 400, 4)
	const leafCap, alpha, eps, degree = 4, 0.67, 0.01, 2
	tr := BuildKeyed(s.Particles, s.Domain, leafCap)
	tr.BuildExpansions(degree)
	x := int32(1)
	for tr.IsLeaf(x) {
		x = tr.Skip[x]
	}
	var whole, cut Cols
	addSubtree(&whole, tr, 0)
	root := AppendNode(&cut, KindInternal, tr.COM(0), tr.Mass[0], tr.Side[0], tr.Exp[0], -1, -1)
	for ch := int32(1); ch < tr.Skip[0]; ch = tr.Skip[ch] {
		if ch == x {
			AppendNode(&cut, KindStub, tr.COM(ch), tr.Mass[ch], tr.Side[ch], tr.Exp[ch], -1, -1)
			continue
		}
		addSubtree(&cut, tr, ch)
	}
	cut.Skip[root] = int32(len(cut.Kind))
	shift := tr.Skip[x] - x - 1 // the stub's missing descendants

	// The set's own particles, and field points far enough out to accept it.
	query := append([]dist.Particle(nil), s.Particles...)
	for i := 0; i < 40; i++ {
		q := s.Particles[i]
		q.ID, q.Pos = 1000+i, q.Pos.Scale(8)
		query = append(query, q)
	}
	for _, potential := range []bool{false, true} {
		accepted, deferred := 0, 0
		var p Packet
		for _, q := range query {
			sweep := func(c *Cols) (vec.V3, Stats, []int64, []int32) {
				sw := Sweep{Secs: []*Cols{c}, Loads: [][]int64{nil, nil, make([]int64, len(c.Kind))}}
				sw.Begin(alpha, eps, 0, potential)
				p.SetLane(0, int32(q.ID), q.Pos)
				sw.Below(&p, 1, SecSeg(0), 0)
				sum := p.Sum(0)
				if potential {
					sum = vec.V3{X: p.Pot(0)}
				}
				return sum, p.Stats(0), sw.Loads[2], p.Deferred(0, nil)
			}
			want, wantStats, wantLoads, none := sweep(&whole)
			got, gotStats, gotLoads, stubs := sweep(&cut)
			if len(none) != 0 {
				t.Fatalf("the whole section deferred %v", none)
			}
			if len(stubs) > 0 {
				deferred++
				if len(stubs) != 1 || stubs[0] != x {
					t.Fatalf("potential=%v particle %d: deferred %v, want [%d]", potential, q.ID, stubs, x)
				}
				continue
			}
			accepted++
			same := math.Float64bits(got.X) == math.Float64bits(want.X) &&
				math.Float64bits(got.Y) == math.Float64bits(want.Y) && math.Float64bits(got.Z) == math.Float64bits(want.Z)
			if !same || gotStats != wantStats {
				t.Fatalf("potential=%v particle %d: %v %+v over the stub, %v %+v over the whole", potential, q.ID, got, gotStats, want, wantStats)
			}
			for i, v := range wantLoads {
				j := int32(i)
				switch {
				case j > x && j < tr.Skip[x]:
					if v != 0 {
						t.Fatalf("potential=%v particle %d: accepted the stub but node %d below it has load %d", potential, q.ID, j, v)
					}
					continue
				case j >= tr.Skip[x]:
					j -= shift
				}
				if gotLoads[j] != v {
					t.Fatalf("potential=%v particle %d node %d: load %d over the stub, %d over the whole", potential, q.ID, i, gotLoads[j], v)
				}
			}
			if gotLoads[x] == 0 {
				t.Fatalf("potential=%v particle %d: accepted stub not charged", potential, q.ID)
			}
		}
		if accepted == 0 || deferred == 0 {
			t.Fatalf("potential=%v: %d lanes accepted the stub, %d deferred it", potential, accepted, deferred)
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
	var accepted [2]int64
	for k, alpha := range []float64{4, 0.7} {
		sw := tr.sweep()
		sw.Begin(alpha, 0, 0, true)
		sweep := func() { sw.Defer(&pk, 8, 0) }
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

func TestCheckWalk(t *testing.T) {
	// What this package builds is walkable: a tree with a MaxDepth leaf of
	// coincident particles, and every segment of a hand-made LET.
	s := dist.MustNamed("g", 300, 3)
	ps := append([]dist.Particle(nil), s.Particles...)
	for i := 0; i < 19; i++ {
		ps = append(ps, dist.Particle{ID: len(ps), Mass: 0.5, Pos: s.Particles[7].Pos})
	}
	segs := []*Cols{&BuildKeyed(ps, s.Domain, 4).Cols}
	sw, _, _ := handLET()
	segs = append(append(segs, &sw.Cols, sw.Own), sw.Secs...)
	for k, c := range segs {
		if err := c.CheckWalk(); err != nil {
			t.Errorf("segment %d: %v", k, err)
		}
	}
	// A chain of internal nodes, each the only child of the one before,
	// may nest MaxDepth+2 levels and no more.
	chain := func(n int) *Cols {
		c := new(Cols)
		for i := 0; i < n; i++ {
			AppendNode(c, KindInternal, vec.V3{}, 1, 1, nil, -1, -1)
			c.Skip[i] = int32(n)
		}
		return c
	}
	if err := chain(MaxDepth + 3).CheckWalk(); err != nil {
		t.Errorf("a chain of %d nodes: %v", MaxDepth+3, err)
	}
	if chain(MaxDepth+4).CheckWalk() == nil {
		t.Errorf("a chain of %d nodes passed", MaxDepth+4)
	}
}
