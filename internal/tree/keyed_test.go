package tree

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// checkMembership asserts the property every build entry point shares:
// each particle's full-resolution Morton key (against rootBox) lies inside
// the key range of every cell that holds it, and leaves hold their
// particles in (key, ID) order.
func checkMembership(t *testing.T, name string, tr *Tree, n int32, rootBox vec.Box) {
	t.Helper()
	key := tr.Cell(n)
	lo, hi := key.Range()
	ps := tr.Particles(n)
	for i := range ps {
		k := keys.FullKey3(ps[i].Pos, rootBox)
		if k < lo || k >= hi {
			t.Fatalf("%s: particle %d key %x outside cell %v range [%x,%x)",
				name, ps[i].ID, k, key, lo, hi)
		}
		if i > 0 {
			pk := keys.FullKey3(ps[i-1].Pos, rootBox)
			if k < pk || (k == pk && ps[i].ID < ps[i-1].ID) {
				t.Fatalf("%s: cell %v not in (key, ID) order at %d", name, key, i)
			}
		}
	}
	for c := n + 1; c < tr.Skip[n]; c = tr.Skip[c] {
		if !key.Contains(tr.Cell(c)) {
			t.Fatalf("%s: child %v outside parent %v", name, tr.Cell(c), key)
		}
		checkMembership(t, name, tr, c, rootBox)
	}
}

func TestKeyedCellMembershipConsistentWithKeys(t *testing.T) {
	// The property that motivates the one build arithmetic: whichever
	// entry point built the tree, cell membership agrees with the keys
	// that define DPDA zone ownership.
	s := dist.MustNamed("s_10g_a", 3000, 33)
	rootBox := s.Domain.Cube()
	sorted, ks := SortByKey(s.Particles, rootBox)
	cell := keys.CellKey{}.Child(keyOctant(ks[0], 0))
	var inCell []dist.Particle
	for i := len(sorted) - 1; i >= 0; i-- { // reversed: the entry must sort
		if lo, hi := cell.Range(); ks[i] >= lo && ks[i] < hi {
			inCell = append(inCell, sorted[i])
		}
	}
	warm := NewBuilder(s.Domain, 8)
	warm.Step(s.Particles)
	// A DPDA rank's builder: one step over the first half of the key
	// order, then the whole set, the earlier snapshot first.
	migrated := NewBuilder(s.Domain, 8)
	migrated.Step(sorted[:len(sorted)/2])
	grown := append(append([]dist.Particle(nil), migrated.Particles()...), sorted[len(sorted)/2:]...)
	slices.Reverse(grown[len(sorted)/2:])
	entries := []struct {
		name string
		tree *Tree
		n    int
	}{
		{"Build", Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain}), s.N()},
		{"BuildKeyed", BuildKeyed(s.Particles, s.Domain, 8), s.N()},
		{"BuildSubtreeKeyed", BuildSubtreeKeyed(inCell, rootBox, cell, 8), len(inCell)},
		{"Builder.Step", warm.Step(s.Particles), s.N()},
		{"Builder.Step, migrated", migrated.Step(grown), s.N()},
	}
	for _, e := range entries {
		if e.tree.Count(0) != e.n {
			t.Fatalf("%s: count %d, want %d", e.name, e.tree.Count(0), e.n)
		}
		checkMembership(t, e.name, e.tree, 0, rootBox)
		// One arithmetic: every whole-tree entry agrees with Build column
		// for column.
		if e.n == s.N() {
			if err := diffTrees(e.tree, entries[0].tree); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
	}
	// A tree built with no Domain is keyed against its own root cell.
	auto := Build(s.Particles, Options{LeafCap: 8})
	checkMembership(t, "Build without Domain", auto, 0, auto.Box(0))
}

// maximalCells collects what MaximalCells emits for [lo, hi) from the
// root of tr.
func maximalCells(tr *Tree, lo, hi uint64) []int32 {
	var cells []int32
	tr.MaximalCells(0, lo, hi, func(n int32) { cells = append(cells, n) })
	return cells
}

func TestMaximalCellsCoverZoneExactly(t *testing.T) {
	s := dist.MustNamed("g", 3000, 41)
	rootBox := s.Domain.Cube()
	sorted, ks := SortByKey(s.Particles, rootBox)
	// Cut at particle ranks, as the zone split does; with n/3 particles
	// per zone and 8-particle leaves, leaves straddle both cuts.
	cuts := []uint64{0, ks[1000], ks[2000], ^uint64(0)}
	claimed := make(map[int]int) // particle ID -> zone
	for z := 0; z+1 < len(cuts); z++ {
		lo, hi := cuts[z], cuts[z+1]
		var zone []dist.Particle
		for i := range sorted {
			if ks[i] >= lo && ks[i] < hi {
				zone = append(zone, sorted[i])
			}
		}
		local := BuildKeyed(zone, s.Domain, 8)
		main := local.Skip[0]
		cells := maximalCells(local, lo, hi)
		pushed := 0
		var prevHi uint64
		for _, c := range cells {
			key := local.Cell(c)
			cLo, cHi := key.Range()
			if cLo < lo || cHi > hi {
				t.Fatalf("zone %d: cell %v range [%x,%x) outside [%x,%x)", z, key, cLo, cHi, lo, hi)
			}
			if cLo < prevHi {
				t.Fatalf("zone %d: cell %v overlaps or precedes its predecessor", z, key)
			}
			prevHi = cHi
			checkMembership(t, "maximal cell", local, c, rootBox)
			got := 0
			for l := c; l < local.Skip[c]; l++ {
				if !local.IsLeaf(l) {
					continue
				}
				for _, q := range local.Particles(l) {
					if _, dup := claimed[q.ID]; dup {
						t.Fatalf("zone %d: particle %d claimed twice", z, q.ID)
					}
					claimed[q.ID] = z
					got++
				}
			}
			if got != local.Count(c) {
				t.Fatalf("zone %d: cell %v holds %d particles, Count %d", z, key, got, local.Count(c))
			}
			// A cell past the tree's own nodes came from a pushed-down
			// straddling leaf.
			if c >= main {
				pushed++
			}
		}
		if z > 0 && pushed == 0 {
			t.Fatalf("zone %d: no straddling leaf was pushed down", z)
		}
		// Maximal: a cell's parent must not fit in the zone as well.
		for _, c := range cells {
			key := local.Cell(c)
			if key.Level == 0 {
				continue
			}
			if pLo, pHi := key.Parent().Range(); pLo >= lo && pHi <= hi {
				t.Fatalf("zone %d: cell %v is not maximal", z, key)
			}
		}
	}
	for i := range sorted {
		z, ok := claimed[sorted[i].ID]
		if !ok || ks[i] < cuts[z] || ks[i] >= cuts[z+1] {
			t.Fatalf("particle %d (key %x) claimed by zone %d, ok=%v", sorted[i].ID, ks[i], z, ok)
		}
	}
}

func TestMaximalCellsMaxDepthLeafClaimedWhole(t *testing.T) {
	// Coincident particles end in one MaxDepth leaf above leafCap; it
	// covers a single key, so no zone cut can split it.
	box := vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	ps := make([]dist.Particle, 30)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.3, Y: 0.6, Z: 0.9}}
	}
	k := keys.FullKey3(ps[0].Pos, box)
	tr := BuildKeyed(ps, box, 4)
	for _, zone := range [][2]uint64{{k, k + 1}, {0, ^uint64(0)}, {k + 1, k + 9}} {
		cells := maximalCells(tr, zone[0], zone[1])
		if len(cells) != 1 || tr.Count(cells[0]) != 30 {
			t.Fatalf("zone [%x,%x): %d cells", zone[0], zone[1], len(cells))
		}
		// Only the zone that holds the whole key space claims the root;
		// the others, the out-of-zone one included, get the single-key cell.
		wantLevel := MaxDepth
		if zone[0] == 0 {
			wantLevel = 0
		}
		if lvl := int(tr.Cell(cells[0]).Level); lvl != wantLevel {
			t.Fatalf("zone [%x,%x): claimed at level %d, want %d", zone[0], zone[1], lvl, wantLevel)
		}
	}
}

func TestKeyedSubtreeMatchesSubrange(t *testing.T) {
	s := dist.MustNamed("uniform", 2000, 34)
	full := BuildKeyed(s.Particles, s.Domain, 8)
	rootBox := full.Box(0)
	// Rebuild one child cell from the particles whose keys land in it.
	child := int32(1)
	oct := full.Cell(child).Octant()
	var sub []dist.Particle
	for _, q := range s.Particles {
		if keyOctant(keys.FullKey3(q.Pos, rootBox), 0) == oct {
			sub = append(sub, q)
		}
	}
	re := BuildSubtreeKeyed(sub, rootBox, full.Cell(child), 8)
	if err := diffSubtrees(re, 0, full, child); err != nil {
		t.Fatalf("oct %d: %v", oct, err)
	}
}

func TestKeyedBuildCoincidentParticles(t *testing.T) {
	ps := make([]dist.Particle, 30)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.25, Y: 0.25, Z: 0.25}}
	}
	tr := BuildKeyed(ps, vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), 4)
	if tr.Count(0) != 30 {
		t.Fatalf("count = %d", tr.Count(0))
	}
	if tr.Depth() > MaxDepth {
		t.Fatalf("depth = %d", tr.Depth())
	}
}

func TestParticleLevelsAndCountNodes(t *testing.T) {
	s := dist.MustNamed("uniform", 500, 35)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	pl := tr.ParticleLevels(0)
	// Every particle contributes at least the root level and at most
	// MaxDepth levels.
	if n := int64(tr.Count(0)); pl < n || pl > n*int64(MaxDepth+1) {
		t.Fatalf("ParticleLevels = %d for %d particles", pl, n)
	}
	if tr.CountNodes(0) != tr.NumNodes() {
		t.Fatal("CountNodes disagrees with NumNodes")
	}
}

func TestAccelFromEqualsSubtreeTraversal(t *testing.T) {
	s := dist.MustNamed("plummer", 1000, 36)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	// AccelFrom at the root must equal AccelAt.
	for i := 0; i < 50; i++ {
		q := s.Particles[i]
		var s1, s2 Stats
		a1 := tr.AccelAt(q.Pos, q.ID, 0.7, 0.01, &s1)
		a2 := tr.AccelFrom(0, q.Pos, q.ID, 0.7, 0.01, &s2)
		if a1 != a2 {
			t.Fatalf("particle %d: %v vs %v", i, a1, a2)
		}
		if s1 != s2 {
			t.Fatalf("stats differ: %+v vs %+v", s1, s2)
		}
	}
}

func TestSumLoadsNode(t *testing.T) {
	s := dist.MustNamed("uniform", 400, 37)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	for _, q := range s.Particles {
		tr.AccelAt(q.Pos, q.ID, 0.7, 0.01, nil)
	}
	// SumLoadsAt aggregates destructively: after one call, each child's
	// Load holds its subtree total and the root total is its own load
	// plus the children's totals.
	rootOwn := tr.Load[0]
	total := tr.SumLoadsAt(0)
	var childSum int64
	for c := int32(1); c < tr.Skip[0]; c = tr.Skip[c] {
		childSum += tr.Load[c]
	}
	if total != rootOwn+childSum {
		t.Fatalf("SumLoadsAt inconsistent: %d vs %d+%d", total, rootOwn, childSum)
	}
	if total <= 0 {
		t.Fatal("no load recorded")
	}
}
