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
func checkMembership(t *testing.T, name string, n *Node, rootBox vec.Box) {
	t.Helper()
	if n == nil {
		return
	}
	lo, hi := n.Key.Range()
	for i := range n.Particles {
		k := keys.FullKey3(n.Particles[i].Pos, rootBox)
		if k < lo || k >= hi {
			t.Fatalf("%s: particle %d key %x outside cell %v range [%x,%x)",
				name, n.Particles[i].ID, k, n.Key, lo, hi)
		}
		if i > 0 {
			pk := keys.FullKey3(n.Particles[i-1].Pos, rootBox)
			if k < pk || (k == pk && n.Particles[i].ID < n.Particles[i-1].ID) {
				t.Fatalf("%s: leaf %v not in (key, ID) order at %d", name, n.Key, i)
			}
		}
	}
	for _, c := range n.Children {
		if c != nil && !n.Key.Contains(c.Key) {
			t.Fatalf("%s: child %v outside parent %v", name, c.Key, n.Key)
		}
		checkMembership(t, name, c, rootBox)
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
		root *Node
		n    int
	}{
		{"Build", Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain}).Root, s.N()},
		{"BuildKeyed", BuildKeyed(s.Particles, s.Domain, 8).Root, s.N()},
		{"BuildSubtreeKeyed", BuildSubtreeKeyed(inCell, rootBox, keys.CellBox(rootBox, cell), cell, 8), len(inCell)},
		{"Builder.Step", warm.Step(s.Particles).Root, s.N()},
		{"Builder.Step, migrated", migrated.Step(grown).Root, s.N()},
	}
	for _, e := range entries {
		if e.root.Count != e.n {
			t.Fatalf("%s: count %d, want %d", e.name, e.root.Count, e.n)
		}
		checkMembership(t, e.name, e.root, rootBox)
		// One arithmetic: every whole-tree entry agrees with Build node
		// for node.
		if e.n == s.N() {
			if err := diffNodes(e.root, entries[0].root, e.name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A tree built with no Domain is keyed against its own root cell.
	auto := Build(s.Particles, Options{LeafCap: 8})
	checkMembership(t, "Build without Domain", auto.Root, auto.Root.Box)
}

// maximalCells collects what MaximalCells emits for [lo, hi).
func maximalCells(root *Node, lo, hi uint64, rootBox vec.Box, leafCap int) []*Node {
	var cells []*Node
	MaximalCells(root, lo, hi, rootBox, leafCap, func(n *Node) { cells = append(cells, n) })
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
		cells := maximalCells(local.Root, lo, hi, rootBox, 8)
		pushed := 0
		var prevHi uint64
		for _, c := range cells {
			cLo, cHi := c.Key.Range()
			if cLo < lo || cHi > hi {
				t.Fatalf("zone %d: cell %v range [%x,%x) outside [%x,%x)", z, c.Key, cLo, cHi, lo, hi)
			}
			if cLo < prevHi {
				t.Fatalf("zone %d: cell %v overlaps or precedes its predecessor", z, c.Key)
			}
			prevHi = cHi
			checkMembership(t, "maximal cell", c, rootBox)
			var count func(n *Node) int
			count = func(n *Node) int {
				if n == nil {
					return 0
				}
				total := len(n.Particles)
				for i := range n.Particles {
					if _, dup := claimed[n.Particles[i].ID]; dup {
						t.Fatalf("zone %d: particle %d claimed twice", z, n.Particles[i].ID)
					}
					claimed[n.Particles[i].ID] = z
				}
				for _, ch := range n.Children {
					total += count(ch)
				}
				return total
			}
			if got := count(c); got != c.Count {
				t.Fatalf("zone %d: cell %v holds %d particles, Count %d", z, c.Key, got, c.Count)
			}
			// A cell that is no node of the local tree came from a
			// pushed-down straddling leaf.
			found := false
			local.Walk(func(n *Node) bool { found = found || n == c; return !found })
			if !found {
				pushed++
			}
		}
		if z > 0 && pushed == 0 {
			t.Fatalf("zone %d: no straddling leaf was pushed down", z)
		}
		// Maximal: a cell's parent must not fit in the zone as well.
		for _, c := range cells {
			if c.Key.Level == 0 {
				continue
			}
			if pLo, pHi := c.Key.Parent().Range(); pLo >= lo && pHi <= hi {
				t.Fatalf("zone %d: cell %v is not maximal", z, c.Key)
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
		cells := maximalCells(tr.Root, zone[0], zone[1], box, 4)
		if len(cells) != 1 || cells[0].Count != 30 {
			t.Fatalf("zone [%x,%x): %d cells", zone[0], zone[1], len(cells))
		}
		// Only the zone that holds the whole key space claims the root;
		// the others, the out-of-zone one included, get the single-key cell.
		wantLevel := MaxDepth
		if zone[0] == 0 {
			wantLevel = 0
		}
		if int(cells[0].Key.Level) != wantLevel {
			t.Fatalf("zone [%x,%x): claimed at level %d, want %d", zone[0], zone[1], cells[0].Key.Level, wantLevel)
		}
	}
}

func TestKeyedSubtreeMatchesSubrange(t *testing.T) {
	s := dist.MustNamed("uniform", 2000, 34)
	full := BuildKeyed(s.Particles, s.Domain, 8)
	rootBox := full.Root.Box
	// Rebuild one child cell from the particles whose keys land in it.
	for oct, child := range full.Root.Children {
		if child == nil || child.Count == 0 {
			continue
		}
		var sub []dist.Particle
		for _, q := range s.Particles {
			if keyOctant(keys.FullKey3(q.Pos, rootBox), 0) == oct {
				sub = append(sub, q)
			}
		}
		re := BuildSubtreeKeyed(sub, rootBox, child.Box, child.Key, 8)
		if re.Count != child.Count {
			t.Fatalf("oct %d: count %d vs %d", oct, re.Count, child.Count)
		}
		if re.Mass != child.Mass || re.COM != child.COM || re.Key != child.Key {
			t.Fatalf("oct %d: mass/COM/key differ", oct)
		}
		break
	}
}

func TestKeyedBuildCoincidentParticles(t *testing.T) {
	ps := make([]dist.Particle, 30)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 0.25, Y: 0.25, Z: 0.25}}
	}
	tr := BuildKeyed(ps, vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1}), 4)
	if tr.Root.Count != 30 {
		t.Fatalf("count = %d", tr.Root.Count)
	}
	if tr.Depth() > MaxDepth {
		t.Fatalf("depth = %d", tr.Depth())
	}
}

func TestParticleLevelsAndCountNodes(t *testing.T) {
	s := dist.MustNamed("uniform", 500, 35)
	tr := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	pl := ParticleLevels(tr.Root)
	// Every particle contributes at least the root level and at most
	// MaxDepth levels.
	if pl < int64(tr.Root.Count) || pl > int64(tr.Root.Count)*int64(MaxDepth+1) {
		t.Fatalf("ParticleLevels = %d for %d particles", pl, tr.Root.Count)
	}
	if CountNodes(tr.Root) != tr.NumNodes() {
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
		a2 := AccelFrom(tr.Root, q.Pos, q.ID, 0.7, 0.01, &s2)
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
	// SumLoadsNode aggregates destructively: after one call, each child's
	// Load holds its subtree total and the root total is its own load
	// plus the children's totals.
	rootOwn := tr.Root.Load
	total := SumLoadsNode(tr.Root)
	var childSum int64
	for _, c := range tr.Root.Children {
		if c != nil {
			childSum += c.Load
		}
	}
	if total != rootOwn+childSum {
		t.Fatalf("SumLoadsNode inconsistent: %d vs %d+%d", total, rootOwn, childSum)
	}
	if total <= 0 {
		t.Fatal("no load recorded")
	}
}
