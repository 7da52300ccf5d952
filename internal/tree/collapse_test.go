package tree

import (
	"testing"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/vec"
)

// degeneratePairs builds the paper's adversarial case: tight particle
// pairs separated by huge distances. A plain octree needs one subdivision
// per halving of the separation; box collapsing resolves each pair in
// O(1) cells.
func degeneratePairs(pairs int, sep float64) []dist.Particle {
	var ps []dist.Particle
	id := 0
	for i := 0; i < pairs; i++ {
		base := vec.V3{X: float64(i) * 1000, Y: float64(i%3) * 700, Z: float64(i%5) * 300}
		ps = append(ps,
			dist.Particle{ID: id, Mass: 1, Pos: base},
			dist.Particle{ID: id + 1, Mass: 1, Pos: base.Add(vec.V3{X: sep})},
		)
		id += 2
	}
	return ps
}

func TestCollapseReducesNodeCount(t *testing.T) {
	ps := degeneratePairs(8, 1e-9) // pairs 1e-9 apart, kilounits apart
	plain := Build(ps, Options{LeafCap: 1})
	collapsed := Build(ps, Options{LeafCap: 1, CollapseBoxes: true})
	if err := collapsed.Validate(); err != nil {
		t.Fatal(err)
	}
	// Plain build hits the depth cap and stores pairs in shared leaves;
	// the collapsed build separates them with few nodes.
	if collapsed.NumNodes() >= plain.NumNodes() {
		t.Fatalf("collapse did not reduce nodes: %d vs %d", collapsed.NumNodes(), plain.NumNodes())
	}
	// Collapsed tree actually separates every pair into singleton leaves.
	collapsed.WalkLeaves(func(n int32) bool {
		if collapsed.Count(n) > 1 {
			t.Errorf("collapsed leaf still holds %d particles", collapsed.Count(n))
		}
		return true
	})
}

func TestCollapseSeparatesArbitrarilyTightPairs(t *testing.T) {
	// Separations far below the 21-level Morton resolution (cell size at
	// MaxDepth ≈ 0.002 for this domain, separation 1e-12 ≈ a few ulps):
	// the plain build gives up (MaxDepth leaf); collapsing keeps
	// splitting.
	ps := degeneratePairs(3, 1e-12)
	collapsed := Build(ps, Options{LeafCap: 1, CollapseBoxes: true})
	single := 0
	collapsed.WalkLeaves(func(n int32) bool {
		if collapsed.Count(n) == 1 {
			single++
		}
		return true
	})
	if single != 6 {
		t.Fatalf("%d singleton leaves, want 6", single)
	}
}

func TestCollapseCoincidentParticlesTerminate(t *testing.T) {
	ps := make([]dist.Particle, 10)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 5, Y: 5, Z: 5}}
	}
	tr := Build(ps, Options{LeafCap: 2, CollapseBoxes: true})
	if tr.Count(0) != 10 {
		t.Fatalf("count = %d", tr.Count(0))
	}
}

func TestCollapsedForcesMatchDirect(t *testing.T) {
	s := dist.MustNamed("plummer", 1500, 51)
	tr := Build(s.Particles, Options{LeafCap: 8, CollapseBoxes: true, Domain: s.Domain})
	got, _ := tr.AccelAll(s.Particles, 0.6, 0.01)
	want := direct.AccelsParallel(s.Particles, 0.01)
	if e := phys.FractionalErrorV3(want, got); e > 0.01 {
		t.Fatalf("collapsed-tree force error %v", e)
	}
}

func TestCollapseKeepsAggregates(t *testing.T) {
	s := dist.MustNamed("s_1g_a", 2000, 52)
	plain := Build(s.Particles, Options{LeafCap: 8, Domain: s.Domain})
	collapsed := Build(s.Particles, Options{LeafCap: 8, CollapseBoxes: true, Domain: s.Domain})
	if collapsed.Count(0) != plain.Count(0) {
		t.Fatal("counts differ")
	}
	if collapsed.COM(0).Dist(plain.COM(0)) > 1e-9 {
		t.Fatal("COM differs")
	}
	// On a concentrated distribution collapsing prunes the empty upper
	// levels, so it should never need more nodes.
	if collapsed.NumNodes() > plain.NumNodes() {
		t.Fatalf("collapse grew the tree: %d vs %d", collapsed.NumNodes(), plain.NumNodes())
	}
}
