package let

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/partition"
	"repro/internal/tree"
	"repro/internal/vec"
)

const closureLeafCap = 8

// decomposition is one formulation's split of a particle set over ranks:
// each rank's particles and branch subtrees, and the replicated top tree's
// Cells over all of them.
type decomposition struct {
	parts    [][]dist.Particle
	branches [][]branch
	cells    *Cells
}

// branch is node n of tree t: one of a rank's branch subtrees.
type branch struct {
	t *tree.Tree
	n int32
}

// clustered deals the clusters of grid to ranks by owner and builds each
// cluster's subtree as parbh's buildLocal does for SPSA and SPDA.
func clustered(ps []dist.Particle, domain vec.Box, p int, grid *partition.Grid, owner []int) decomposition {
	level := uint8(bits.Len(uint(grid.RX)) - 1)
	d := decomposition{parts: make([][]dist.Particle, p), branches: make([][]branch, p)}
	for c, cps := range grid.Bucket(ps) {
		if len(cps) == 0 {
			continue
		}
		i, j, k := grid.Coords(c)
		ck := keys.CellKey{Level: level, Key: keys.Encode3(uint32(i), uint32(j), uint32(k))}
		r := owner[c]
		d.parts[r] = append(d.parts[r], cps...)
		sub := tree.NewForest(domain, closureLeafCap)
		d.branches[r] = append(d.branches[r], branch{sub, sub.AddSubtreeKeyed(cps, ck)})
	}
	d.cells = replicatedCells(domain, p, d.branches)
	return d
}

// segmented splits the Morton-ordered particles into p equal-count key
// segments and takes each rank's maximal cells, as parbh does for DPDA.
func segmented(ps []dist.Particle, domain vec.Box, p int) decomposition {
	d := decomposition{parts: make([][]dist.Particle, p), branches: make([][]branch, p)}
	sorted, ks := tree.SortByKey(ps, domain)
	starts, bounds := partition.EqualCountZones(ks, p)
	for r := range p {
		d.parts[r] = sorted[starts[r]:starts[r+1]]
		hi := ^uint64(0)
		if r+1 < p {
			hi = bounds[r+1]
		}
		tr := tree.BuildKeyed(d.parts[r], domain, closureLeafCap)
		tr.MaximalCells(0, bounds[r], hi, func(n int32) {
			d.branches[r] = append(d.branches[r], branch{tr, n})
		})
	}
	d.cells = replicatedCells(domain, p, d.branches)
	return d
}

// replicatedCells is the top tree over the ranks' branch cells, appended in
// the order parbh's topCells walks its replicated tree.
func replicatedCells(domain vec.Box, p int, branches [][]branch) *Cells {
	owners := map[keys.CellKey][]int{}
	above := map[keys.CellKey]bool{}
	for r, bs := range branches {
		for _, b := range bs {
			key := b.t.Cell(b.n)
			owners[key] = append(owners[key], r)
			for ck := key; ck.Level > 0; {
				ck = ck.Parent()
				above[ck] = true
			}
		}
	}
	c := NewCells(domain, p)
	var add func(ck keys.CellKey, box vec.Box)
	add = func(ck keys.CellKey, box vec.Box) {
		if os, ok := owners[ck]; ok {
			c.AddBranch(box, os)
			return
		}
		i := c.AddTop(box)
		for oct := range 8 {
			if kid := ck.Child(oct); above[kid] || owners[kid] != nil {
				add(kid, box.Octant(oct))
			}
		}
		c.Close(i)
	}
	add(keys.CellKey{}, domain)
	return c
}

// wholeDomain is the Domain of the one rank of a machine whose only branch
// cell is the root: the bounding box alone decides.
func wholeDomain(domain vec.Box, b Bounds) *Domain {
	c := NewCells(domain, 1)
	c.AddBranch(domain, []int{0})
	return &Domain{Bounds: b, Cells: c, Rank: 0}
}

// onFaces returns n particles placed exactly on faces, edges and corners of
// cells at levels 1–6 — where two ranks' cells meet, and where a particle's
// key and its cell's halved box can disagree by an ulp — then n/8 copies of
// particles of near pushed up to 5 % of the domain outside one of its faces,
// whose keys clamp into boundary cells, and 144 more outside in groups.
func onFaces(domain vec.Box, rng *rand.Rand, n, firstID int, near []dist.Particle) []dist.Particle {
	var ps []dist.Particle
	add := func(pos vec.V3) {
		ps = append(ps, dist.Particle{ID: firstID + len(ps), Mass: near[0].Mass, Pos: pos})
	}
	for len(ps) < n {
		lvl := 1 + rng.Intn(6)
		b := keys.CellBox(domain, keys.CellKey{Level: uint8(lvl), Key: keys.Morton(rng.Int63n(1 << (3 * lvl)))})
		pos := b.Center()
		for k := range 3 {
			switch rng.Intn(3) {
			case 0:
				pos = withComp(pos, k, comp(b.Min, k))
			case 1:
				pos = withComp(pos, k, comp(b.Max, k))
			}
		}
		add(pos)
	}
	size := domain.Size()
	for range n / 8 {
		pos, k := near[rng.Intn(len(near))].Pos, rng.Intn(3)
		pos = withComp(pos, k, outside(domain, k, rng.Intn(2), 0.05*rng.Float64()))
		add(pos)
	}
	// Groups of 24 a twentieth of the domain outside it, twelve either side of
	// a face between two level-3 cells: nodes whose centre of mass lies
	// outside the domain, next to another rank's particles there.
	for range 6 {
		k, j := rng.Intn(3), rng.Intn(2)
		in := (k + 1 + j) % 3
		face := comp(domain.Min, in) + comp(size, in)*float64(1+rng.Intn(7))/8
		base := withComp(near[rng.Intn(len(near))].Pos, k, outside(domain, k, rng.Intn(2), 0.05))
		for i := range 24 {
			side := float64(2*(i%2) - 1)
			add(withComp(base, in, face+side*comp(size, in)*(0.0005+0.001*float64(i/2))))
		}
	}
	return ps
}

// outside returns the coordinate frac of the domain's side beyond its low
// (hi = 0) or high face along axis k.
func outside(domain vec.Box, k, hi int, frac float64) float64 {
	if hi == 0 {
		return comp(domain.Min, k) - comp(domain.Size(), k)*frac
	}
	return comp(domain.Max, k) + comp(domain.Size(), k)*frac
}

// TestCellPadCoversKeying pins the slack Cells pads cell boxes by: points
// within two ulps of cell faces, at every level, are keyed into cells whose
// halved boxes miss some of them — by at most the pad.
func TestCellPadCoversKeying(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, domain := range []vec.Box{
		dist.MustNamed("plummer", 100, 5).Domain.Cube(),
		{Min: vec.V3{X: 1000, Y: -3, Z: 0.25}, Max: vec.V3{X: 1001.3, Y: -1.7, Z: 1.55}},
	} {
		pad := NewCells(domain, 1).pad
		missed := 0
		for range 100000 {
			lvl := 1 + rng.Intn(keys.MaxBits3D)
			b := keys.CellBox(domain, keys.CellKey{Level: uint8(lvl), Key: keys.Morton(rng.Int63n(1 << (3 * min(lvl, 20))))})
			var pos vec.V3
			for k := range 3 {
				v := comp(b.Min, k)
				if rng.Intn(2) == 0 {
					v = comp(b.Max, k)
				}
				for range rng.Intn(3) {
					v = math.Nextafter(v, math.Inf(2*rng.Intn(2)-1))
				}
				pos = withComp(pos, k, v)
			}
			kb := keys.CellBox(domain, keys.CellKey{Level: uint8(lvl), Key: keys.PointKey3(pos, domain, uint(lvl))})
			for k := range 3 {
				x, lo, hi := comp(pos, k), comp(kb.Min, k), comp(kb.Max, k)
				if x < lo || x > hi {
					missed++
				}
				if x < lo-pad || x > hi+pad {
					t.Fatalf("%v: level %d point %v lies %g outside its cell %v..%v, pad %g", domain, lvl, pos, math.Max(lo-x, x-hi), kb.Min, kb.Max, pad)
				}
			}
		}
		if missed == 0 {
			t.Errorf("%v: every point lies in its cell's box: the probe cannot tell a pad from none", domain)
		}
	}
}

// TestBuildSectionEssentialClosure is the essential-set property over the
// peer domains of the three formulations — SPSA's scattered clusters,
// SPDA's Morton runs of clusters, DPDA's key segments — with particles
// exactly on cell faces, edges and corners and some outside the domain.
// For every branch of every owner and every peer:
//   - the section is a faithful DFS of the owner's subtree down to its
//     closed frontier;
//   - every node any particle of the peer opens is shipped open, and a peer
//     whose particles all accept the root is shipped nothing;
//   - the section is, node for node, a subsequence of the one the peer's
//     bounding box alone gives — it never ships more, nor opens what that
//     one closes;
//   - the flat kernel sweeping the peer's particles over the grafted
//     section never panics for a closed node rejected or a section missing.
func TestBuildSectionEssentialClosure(t *testing.T) {
	// A uniform set is dense at the domain's faces, a Plummer sphere in its
	// middle; the clusters are as fine as keeps them above the leaf cap.
	for _, tc := range []struct {
		dataset string
		grid    int
	}{{"plummer", 8}, {"uniform", 4}} {
		t.Run(tc.dataset, func(t *testing.T) { essentialClosure(t, tc.dataset, tc.grid) })
	}
	t.Run("boxes", randomBoxClosure)
}

// randomBoxClosure holds the bounding-box half of the test alone: for
// random peer boxes — far outside to overlapping the owner's domain, a
// single point to half the domain wide — and α, no node shipped closed
// fails the MAC from the box's corners, random interior points or the box
// point nearest the node.
func randomBoxClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := dist.MustNamed("plummer", 1500, 5)
	tr := tree.BuildKeyed(s.Particles, s.Domain, closureLeafCap)
	size := s.Domain.Size()
	var sc Scratch
	closed, unshipped := 0, 0
	for trial := range 300 {
		alpha := 0.2 + 1.3*rng.Float64()
		var lo, hi vec.V3
		for k := range 3 {
			c := comp(s.Domain.Min, k) + comp(size, k)*(3*rng.Float64()-1)
			w := comp(size, k) * 0.5 * rng.Float64() * float64(rng.Intn(2))
			lo, hi = withComp(lo, k, c), withComp(hi, k, c+w)
		}
		where := fmt.Sprintf("trial %d α=%v box %v..%v", trial, alpha, lo, hi)
		var probes []dist.Particle
		for c := range 16 {
			q := vec.V3{X: lo.X + (hi.X-lo.X)*rng.Float64(), Y: lo.Y + (hi.Y-lo.Y)*rng.Float64(), Z: lo.Z + (hi.Z-lo.Z)*rng.Float64()}
			if c < 8 {
				q = vec.V3{X: []float64{lo.X, hi.X}[c&1], Y: []float64{lo.Y, hi.Y}[c>>1&1], Z: []float64{lo.Z, hi.Z}[c>>2]}
			}
			probes = append(probes, dist.Particle{ID: -1 - c, Pos: q})
		}
		dom := wholeDomain(s.Domain.Cube(), Bounds{Has: true, Min: lo, Max: hi})
		sec, nodes, _ := BuildSection(tr, 0, dom, alpha, false, false, &sc)
		if sec == nil {
			unshipped++
			if forced, _, _ := BuildSection(tr, 0, dom, alpha, false, true, &sc); forced == nil || forced.NumNodes() == 0 {
				t.Fatalf("%s: alwaysShip shipped nothing", where)
			}
		}
		closed += checkSerialization(t, where, tr, sec, nodes)
		checkOpens(t, where, branch{tr, 0}, sec, nodes, probes, alpha)
		for j := range nodes {
			com := vec.V3{X: sec.ComX[j], Y: sec.ComY[j], Z: sec.ComZ[j]}
			if nearest := com.Max(lo).Min(hi); sec.Kind[j] == tree.KindClosed && !realMAC(com, sec.Side[j], nearest, alpha) {
				t.Fatalf("%s: closed node %d fails the MAC from %v", where, j, nearest)
			}
		}
	}
	if closed == 0 || unshipped == 0 {
		t.Fatalf("trials too tame: %d closed nodes, %d unshipped roots", closed, unshipped)
	}
}

func essentialClosure(t *testing.T, dataset string, r int) {
	rng := rand.New(rand.NewSource(17))
	s := dist.MustNamed(dataset, 1200, 5)
	domain := s.Domain.Cube()
	ps := append(append([]dist.Particle(nil), s.Particles...), onFaces(domain, rng, 320, s.N(), s.Particles)...)
	const p = 8
	grid, err := partition.NewGrid(domain, r, r, r)
	if err != nil {
		t.Fatal(err)
	}
	scatter, err := grid.ScatterAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	// SPDA cuts the Morton order of the clusters into runs of equal load.
	loads := make([]float64, grid.NumClusters())
	for c, cps := range grid.Bucket(ps) {
		loads[c] = float64(len(cps))
	}
	order := grid.MortonOrder()
	runs := partition.OwnerFromRuns(order, partition.RunsByLoad(order, loads, p), len(loads))
	var sc Scratch
	for _, tc := range []struct {
		name string
		d    decomposition
	}{
		{"SPSA", clustered(ps, domain, p, grid, scatter)},
		{"SPDA", clustered(ps, domain, p, grid, runs)},
		{"DPDA", segmented(ps, domain, p)},
	} {
		spared, closed, unshipped := 0, 0, 0
		for _, alpha := range []float64{0.3, 0.67, 1.2} {
			for o, brs := range tc.d.branches {
				for r, peer := range tc.d.parts {
					if r == o || len(peer) == 0 {
						continue
					}
					// One Domain per peer, its sections built in branch order,
					// as parbh's letExchange builds them.
					dom := &Domain{Bounds: BoundsOf(peer), Cells: tc.d.cells, Rank: r}
					for _, br := range brs {
						where := fmt.Sprintf("%s α=%v owner %d branch %v peer %d", tc.name, alpha, o, br.t.Cell(br.n), r)
						sec, nodes, tests := BuildSection(br.t, br.n, dom, alpha, false, false, &sc)
						if sec == nil {
							unshipped++
							if forced, _, _ := BuildSection(br.t, br.n, dom, alpha, false, true, &sc); forced == nil || forced.NumNodes() == 0 {
								t.Fatalf("%s: alwaysShip shipped nothing", where)
							}
						} else if len(nodes) != sec.NumNodes() || tests < sec.NumNodes() {
							t.Fatalf("%s: %d nodes, %d owner refs, %d tests", where, sec.NumNodes(), len(nodes), tests)
						}
						closed += checkSerialization(t, where, br.t, sec, nodes)
						checkOpens(t, where, br, sec, nodes, peer, alpha)
						spared += checkWithinBounds(t, where, br, dom.Bounds, alpha, sec, nodes)
						sweepGraft(t, where, br, sec, peer, alpha)
					}
				}
			}
		}
		if spared == 0 || closed == 0 || unshipped == 0 {
			t.Errorf("%s: too tame — the cells spared %d nodes, %d shipped closed, %d sections empty", tc.name, spared, closed, unshipped)
		}
	}
	if sec, _, _ := BuildSection(tree.BuildKeyed(ps, domain, closureLeafCap), 0, &Domain{}, 0.67, false, true, new(Scratch)); sec != nil {
		t.Fatal("shipped to a receiver with no particles")
	}
}

// checkSerialization checks that sec is a faithful DFS of the owner's
// subtree in tr down to its closed frontier and returns its closed node
// count.
func checkSerialization(t *testing.T, where string, tr *tree.Tree, sec *Section, nodes []int32) int {
	t.Helper()
	if sec == nil {
		return 0
	}
	closed := 0
	nextParticle := int32(0)
	for j, k := range sec.Kind {
		n := nodes[j]
		switch k {
		case tree.KindLeaf:
			ps := tr.Particles(n)
			if sec.Lo[j] != nextParticle || int(sec.Hi[j]-sec.Lo[j]) != len(ps) || sec.Skip[j] != int32(j+1) {
				t.Fatalf("%s: leaf %d range [%d,%d) skip %d", where, j, sec.Lo[j], sec.Hi[j], sec.Skip[j])
			}
			for i, p := range ps {
				at := int(nextParticle) + i
				if sec.ID[at] != int32(p.ID) || sec.PX[at] != p.Pos.X || sec.PY[at] != p.Pos.Y || sec.PZ[at] != p.Pos.Z || sec.PM[at] != p.Mass {
					t.Fatalf("%s: leaf %d particle %d differs from the owner's", where, j, i)
				}
			}
			nextParticle = sec.Hi[j]
		case tree.KindClosed:
			closed++
			if sec.Skip[j] != int32(j+1) {
				t.Fatalf("%s: closed node %d has children", where, j)
			}
		case tree.KindInternal:
			// Every child follows, in order, as the next subtree; the skip
			// pointer closes over all of them.
			at := int32(j + 1)
			for c := n + 1; c < tr.Skip[n]; c = tr.Skip[c] {
				if at >= int32(len(nodes)) || nodes[at] != c {
					t.Fatalf("%s: open node %d is missing a child", where, j)
				}
				at = sec.Skip[at]
			}
			if sec.Skip[j] != at {
				t.Fatalf("%s: open node %d skip %d, children end at %d", where, j, sec.Skip[j], at)
			}
		}
		if k != tree.KindLeaf && (sec.ComX[j] != tr.ComX[n] || sec.Mass[j] != tr.Mass[n] || sec.Side[j] != tr.Box(n).LongestSide()) {
			t.Fatalf("%s: node %d summary differs from the owner's", where, j)
		}
	}
	if int(nextParticle) != len(sec.ID) {
		t.Fatalf("%s: %d particle columns, leaves cover %d", where, len(sec.ID), nextParticle)
	}
	return closed
}

// checkOpens replays the receiver's MAC for every particle of the peer down
// the owner's subtree: every node a particle reaches is shipped, and every
// internal node one rejects is shipped open.
func checkOpens(t *testing.T, where string, br branch, sec *Section, nodes []int32, peer []dist.Particle, alpha float64) {
	t.Helper()
	tr := br.t
	kind := make(map[int32]uint8, len(nodes))
	for j, n := range nodes {
		kind[n] = sec.Kind[j]
	}
	for _, q := range peer {
		if sec == nil {
			if !realMAC(tr.COM(br.n), tr.Box(br.n).LongestSide(), q.Pos, alpha) {
				t.Fatalf("%s: nothing shipped, yet particle %d at %v rejects the branch", where, q.ID, q.Pos)
			}
			continue
		}
		var visit func(n int32)
		visit = func(n int32) {
			k, ok := kind[n]
			if !ok {
				t.Fatalf("%s: particle %d at %v reaches a node not shipped", where, q.ID, q.Pos)
			}
			if tr.IsLeaf(n) || realMAC(tr.COM(n), tr.Box(n).LongestSide(), q.Pos, alpha) {
				return
			}
			if k != tree.KindInternal {
				t.Fatalf("%s: particle %d at %v opens node %v, shipped closed", where, q.ID, q.Pos, tr.Cell(n))
			}
			for c := n + 1; c < tr.Skip[n]; c = tr.Skip[c] {
				visit(c)
			}
		}
		visit(br.n)
	}
}

// checkWithinBounds checks the section against the walk the peer's
// bounding box alone gives and returns how many nodes that walk ships and
// the section does not.
func checkWithinBounds(t *testing.T, where string, br branch, b Bounds, alpha float64, sec *Section, nodes []int32) int {
	t.Helper()
	tr := br.t
	var ref []int32
	var refKind []uint8
	var add func(n int32)
	add = func(n int32) {
		ref = append(ref, n)
		switch {
		case tr.IsLeaf(n):
			refKind = append(refKind, tree.KindLeaf)
		case n != br.n && b.Closed(tr.COM(n), tr.Box(n).LongestSide(), alpha):
			refKind = append(refKind, tree.KindClosed)
		default:
			refKind = append(refKind, tree.KindInternal)
			for c := n + 1; c < tr.Skip[n]; c = tr.Skip[c] {
				add(c)
			}
		}
	}
	if !b.Closed(tr.COM(br.n), tr.Box(br.n).LongestSide(), alpha) {
		add(br.n)
	}
	j := 0
	for i, n := range nodes {
		for j < len(ref) && ref[j] != n {
			j++
		}
		if j == len(ref) {
			t.Fatalf("%s: node %d is shipped where the bounding box ships no such node", where, i)
		}
		if (sec.Kind[i] == tree.KindInternal && refKind[j] != tree.KindInternal) || (sec.Kind[i] == tree.KindLeaf) != (refKind[j] == tree.KindLeaf) {
			t.Fatalf("%s: node %d ships as kind %d, the bounding box's as %d", where, i, sec.Kind[i], refKind[j])
		}
		j++
	}
	return len(ref) - len(nodes)
}

// sweepGraft grafts the section under a branch cell the way a receiver
// does and sweeps the peer's particles over it.
func sweepGraft(t *testing.T, where string, br branch, sec *Section, peer []dist.Particle, alpha float64) {
	t.Helper()
	main := &Main{}
	b := main.AddBranch(false, br.t.COM(br.n), br.t.Mass[br.n], br.t.Box(br.n).LongestSide(), nil, 1)
	fl := &Flat{}
	fl.Reset(main, nil)
	if sec != nil {
		fl.AddSection(1, sec, b, 0)
	}
	fl.Seal()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", where, r)
		}
	}()
	fl.ForceAll(peer, alpha, 0.01, testExAdd, make([]vec.V3, len(peer)), nil)
}

// comp returns v's coordinate along axis k.
func comp(v vec.V3, k int) float64 { return [3]float64{v.X, v.Y, v.Z}[k] }

// withComp returns v with its coordinate along axis k set to x.
func withComp(v vec.V3, k int, x float64) vec.V3 {
	a := [3]float64{v.X, v.Y, v.Z}
	a[k] = x
	return vec.V3{X: a[0], Y: a[1], Z: a[2]}
}
