package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/vec"
)

// diffTrees compares two whole trees column for column with bitwise float
// comparison — the two-clock rule demands the incremental build be
// indistinguishable from the from-scratch build, not merely numerically
// close.
func diffTrees(a, b *Tree) error {
	if a.NumNodes() != b.NumNodes() || len(a.ps) != len(b.ps) {
		return fmt.Errorf("%d nodes over %d particles vs %d over %d", a.NumNodes(), len(a.ps), b.NumNodes(), len(b.ps))
	}
	return diffSubtrees(a, 0, b, 0)
}

// diffSubtrees compares the subtree under node ai of a with the one under
// node bi of b: every node column, with skip pointers and particle ranges
// relative to the subtree roots, and the particles (snapshot, keys and
// columns) the ranges hold.
func diffSubtrees(a *Tree, ai int32, b *Tree, bi int32) error {
	if a.CountNodes(ai) != b.CountNodes(bi) || a.Count(ai) != b.Count(bi) {
		return fmt.Errorf("subtree of %d nodes over %d particles vs %d over %d", a.CountNodes(ai), a.Count(ai), b.CountNodes(bi), b.Count(bi))
	}
	bits := math.Float64bits
	for k := int32(0); k < int32(a.CountNodes(ai)); k++ {
		i, j := ai+k, bi+k
		where := fmt.Sprintf("node %d (%v)", k, a.Cell(i))
		switch {
		case a.Kind[i] != b.Kind[j]:
			return fmt.Errorf("%s: kind %d vs %d", where, a.Kind[i], b.Kind[j])
		case a.Key[i] != b.Key[j]:
			return fmt.Errorf("%s: key %v vs %v", where, a.Cell(i), b.Cell(j))
		case a.Skip[i]-ai != b.Skip[j]-bi:
			return fmt.Errorf("%s: skip %d vs %d", where, a.Skip[i]-ai, b.Skip[j]-bi)
		case a.Lo[i]-a.Lo[ai] != b.Lo[j]-b.Lo[bi] || a.Hi[i]-a.Lo[ai] != b.Hi[j]-b.Lo[bi]:
			return fmt.Errorf("%s: range [%d, %d) vs [%d, %d)", where, a.Lo[i]-a.Lo[ai], a.Hi[i]-a.Lo[ai], b.Lo[j]-b.Lo[bi], b.Hi[j]-b.Lo[bi])
		case bits(a.Mass[i]) != bits(b.Mass[j]):
			return fmt.Errorf("%s: mass %x vs %x", where, bits(a.Mass[i]), bits(b.Mass[j]))
		case bits(a.ComX[i]) != bits(b.ComX[j]) || bits(a.ComY[i]) != bits(b.ComY[j]) || bits(a.ComZ[i]) != bits(b.ComZ[j]):
			return fmt.Errorf("%s: COM %v vs %v", where, a.COM(i), b.COM(j))
		case bits(a.Side[i]) != bits(b.Side[j]):
			return fmt.Errorf("%s: side %v vs %v", where, a.Side[i], b.Side[j])
		case a.Box(i) != b.Box(j):
			return fmt.Errorf("%s: box %+v vs %+v", where, a.Box(i), b.Box(j))
		case a.Load[i] != b.Load[j]:
			return fmt.Errorf("%s: load %d vs %d", where, a.Load[i], b.Load[j])
		case (a.Exp[i] == nil) != (b.Exp[j] == nil):
			return fmt.Errorf("%s: expansion presence mismatch", where)
		}
	}
	for k := int32(0); k < int32(a.Count(ai)); k++ {
		i, j := a.Lo[ai]+k, b.Lo[bi]+k
		if a.ps[i] != b.ps[j] || a.ks[i] != b.ks[j] || a.ID[i] != b.ID[j] || bits(a.PX[i]) != bits(b.PX[j]) ||
			bits(a.PY[i]) != bits(b.PY[j]) || bits(a.PZ[i]) != bits(b.PZ[j]) || bits(a.PM[i]) != bits(b.PM[j]) {
			return fmt.Errorf("particle %d: %+v vs %+v", k, a.ps[i], b.ps[j])
		}
	}
	return nil
}

// jitter moves a fraction frac of the bodies by a random displacement of
// the given scale (in domain units). frac=0 models a pathological
// zero-motion step; frac=1 moves everything.
func jitter(rng *rand.Rand, bodies []dist.Particle, frac, scale float64) {
	for i := range bodies {
		if frac < 1 && rng.Float64() >= frac {
			continue
		}
		bodies[i].Pos.X += (rng.Float64() - 0.5) * scale
		bodies[i].Pos.Y += (rng.Float64() - 0.5) * scale
		bodies[i].Pos.Z += (rng.Float64() - 0.5) * scale
	}
}

func testDomain() vec.Box {
	return vec.Box{Min: vec.V3{X: -40, Y: -40, Z: -40}, Max: vec.V3{X: 40, Y: 40, Z: 40}}
}

func TestBuilderIncrementalMatchesFromScratch(t *testing.T) {
	domain := testDomain()
	for _, tc := range []struct {
		name  string
		frac  float64
		scale float64
	}{
		{"none-moved", 0, 0},
		{"tiny-drift", 0.01, 1e-3},
		{"small-drift", 0.05, 0.05},
		{"heavy-drift", 0.5, 1.0},
		{"all-moved", 1.0, 2.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			bodies := dist.MustNamed("plummer", 2500, 61).Particles
			b := NewBuilder(domain, 8)
			for step := 0; step < 6; step++ {
				got := b.Step(bodies)
				want := BuildKeyed(bodies, domain, 8)
				if err := diffTrees(got, want); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				rep := b.Last()
				if step == 0 && !rep.Cold {
					t.Fatal("first step must be cold")
				}
				if step > 0 && (rep.Cold || rep.Refreshed+rep.Spine+rep.Rebuilt != got.NumNodes()) {
					t.Fatalf("step %d: %+v over %d nodes", step, rep, got.NumNodes())
				}
				if step > 0 && tc.frac == 0 && rep.Rebuilt != 0 {
					t.Fatalf("step %d: nothing moved but %+v", step, rep)
				}
				if step > 0 && tc.frac > 0 && tc.frac < 0.5 && rep.Rebuilt*10 > got.NumNodes() {
					t.Fatalf("step %d: light drift rebuilt %d of %d nodes", step, rep.Rebuilt, got.NumNodes())
				}
				jitter(rng, bodies, tc.frac, tc.scale)
			}
		})
	}
}

// migrateFeed assembles what a DPDA rank hands its builder: the particles
// of the previous snapshot whose keys stay in [lo, hi), in snapshot order
// with their current state, then the newcomers to the range in ID order.
// It writes into dst's storage, as the rank reuses the array it assembled
// the step before. bodies is indexed by ID.
func migrateFeed(dst, snap, bodies []dist.Particle, box vec.Box, lo, hi uint64) []dist.Particle {
	in := func(q dist.Particle) bool {
		k := keys.FullKey3(q.Pos, box)
		return k >= lo && k < hi
	}
	held := make([]bool, len(bodies))
	for _, q := range snap {
		held[q.ID] = true
		if q = bodies[q.ID]; in(q) {
			dst = append(dst, q)
		}
	}
	for _, q := range bodies {
		if !held[q.ID] && in(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// TestBuilderStepSortedMatchesFromScratch feeds Builder.Step the way a DPDA
// rank does: a zone that drifts every step, so the count changes, with the
// stayers in their previous sorted order and the immigrants appended. The
// tree must be BuildKeyed's and the snapshot the (key, ID) sort of the
// input.
func TestBuilderStepSortedMatchesFromScratch(t *testing.T) {
	domain := testDomain()
	box := domain.Cube()
	rng := rand.New(rand.NewSource(7))
	bodies := dist.MustNamed("g", 1800, 19).Particles
	b := NewBuilder(domain, 8)
	_, ks := SortByKey(bodies, box)
	var in []dist.Particle
	counts := map[int]bool{}
	for step := 0; step < 5; step++ {
		lo, hi := ks[len(ks)/4+40*step], ks[3*len(ks)/4+10*step]
		in = migrateFeed(in[:0], b.Particles(), bodies, box, lo, hi)
		counts[len(in)] = true
		got := b.Step(in)
		want := BuildKeyed(in, domain, 8)
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if sorted, _ := SortByKey(in, box); !slices.Equal(b.Particles(), sorted) {
			t.Fatalf("step %d: snapshot is not the input in (key, ID) order", step)
		}
		jitter(rng, bodies, 0.1, 0.2)
	}
	if len(counts) < 2 {
		t.Fatalf("the zone's particle count never changed: %v", counts)
	}
}

// TestBuilderStepSortedUnsortedFallback trades one particle for another at
// an unchanged count, the one DPDA input the length check cannot catch: the
// warm path's ID guard must see that the input is no longer the order it
// retained and sort it cold.
func TestBuilderStepSortedUnsortedFallback(t *testing.T) {
	domain := testDomain()
	bodies := dist.MustNamed("plummer", 600, 3).Particles
	b := NewBuilder(domain, 8)
	in := append([]dist.Particle(nil), bodies[:599]...)
	b.Step(in)
	next := append(in[:0], b.Particles()[1:]...) // one emigrant leaves
	next = append(next, bodies[599])             // one immigrant arrives
	got := b.Step(next)
	if !b.Last().Cold {
		t.Fatal("a traded particle took the warm path")
	}
	if err := diffTrees(got, BuildKeyed(next, domain, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderColdFallbacks(t *testing.T) {
	domain := testDomain()
	rng := rand.New(rand.NewSource(9))
	bodies := dist.MustNamed("plummer", 1200, 5).Particles
	b := NewBuilder(domain, 8)
	b.Step(bodies)

	// Reordering the input slice must be detected by the ID guard.
	reordered := append([]dist.Particle(nil), bodies...)
	rng.Shuffle(len(reordered), func(i, j int) { reordered[i], reordered[j] = reordered[j], reordered[i] })
	got := b.Step(reordered)
	if !b.Last().Cold {
		t.Fatal("reordered input did not force a cold build")
	}
	if err := diffTrees(got, BuildKeyed(reordered, domain, 8)); err != nil {
		t.Fatal(err)
	}

	// A length change must force a cold build.
	shrunk := reordered[:900]
	got = b.Step(shrunk)
	if !b.Last().Cold {
		t.Fatal("length change did not force a cold build")
	}
	if err := diffTrees(got, BuildKeyed(shrunk, domain, 8)); err != nil {
		t.Fatal(err)
	}

	// Reset drops all retained state.
	b.Reset()
	got = b.Step(shrunk)
	if !b.Last().Cold {
		t.Fatal("step after Reset was not cold")
	}
	if err := diffTrees(got, BuildKeyed(shrunk, domain, 8)); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderShapeChangeRewrites moves every particle far each step, so
// cells change shape: the warm step must rebuild those cells alone, splice
// them into its retained columns and still produce BuildKeyed's tree — and
// refresh everything in place again once nothing moves.
func TestBuilderShapeChangeRewrites(t *testing.T) {
	domain := testDomain()
	rng := rand.New(rand.NewSource(13))
	bodies := dist.MustNamed("plummer", 800, 31).Particles
	b := NewBuilder(domain, 8)
	resized := false
	for step := 0; step < 12; step++ {
		still := step >= 10
		if !still {
			jitter(rng, bodies, 1.0, 10.0)
		}
		before := 0
		if b.Tree() != nil {
			before = b.Tree().NumNodes()
		}
		got := b.Step(bodies)
		rep := b.Last()
		want := BuildKeyed(bodies, domain, 8)
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == 0 {
			continue
		}
		if rep.Cold {
			t.Fatalf("step %d: the same particles sorted cold", step)
		}
		if rep.Refreshed+rep.Spine+rep.Rebuilt != got.NumNodes() {
			t.Fatalf("step %d: %+v does not account for %d nodes", step, rep, got.NumNodes())
		}
		if still && rep.Rebuilt != 0 {
			t.Fatalf("step %d: nothing moved but %+v", step, rep)
		}
		if !still && (rep.Rebuilt == 0 || rep.Spine == 0) {
			t.Fatalf("step %d: everything moved but %+v: no splice", step, rep)
		}
		resized = resized || got.NumNodes() != before
	}
	if !resized {
		t.Fatal("no step changed the node count: the splice never moved a run")
	}
}

func TestBuilderCoincidentParticles(t *testing.T) {
	// All particles at one point drive the build to MaxDepth and the
	// oversized-leaf path; the incremental diff must reproduce it.
	domain := testDomain()
	bodies := make([]dist.Particle, 40)
	for i := range bodies {
		bodies[i] = dist.Particle{ID: i, Mass: 1, Pos: vec.V3{X: 1.25, Y: -3.5, Z: 7.75}}
	}
	b := NewBuilder(domain, 4)
	for step := 0; step < 3; step++ {
		got := b.Step(bodies)
		want := BuildKeyed(bodies, domain, 4)
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Move one particle away and back to dirty the deep chain.
		if step == 0 {
			bodies[0].Pos = vec.V3{X: -20, Y: 20, Z: -20}
		} else {
			bodies[0].Pos = vec.V3{X: 1.25, Y: -3.5, Z: 7.75}
		}
	}
}

func FuzzBuilderIncremental(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(10))
	f.Add(int64(2), uint8(4), uint8(0), uint8(0))    // none moved
	f.Add(int64(3), uint8(4), uint8(100), uint8(50)) // all moved, large scale
	f.Add(int64(4), uint8(2), uint8(100), uint8(255))
	f.Add(int64(5), uint8(6), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, steps, movedPct, scalePct uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		domain := testDomain()
		bodies := make([]dist.Particle, n)
		for i := range bodies {
			bodies[i] = dist.Particle{
				ID:   i,
				Mass: rng.Float64() + 0.01,
				Pos: vec.V3{
					X: (rng.Float64() - 0.5) * 70,
					Y: (rng.Float64() - 0.5) * 70,
					Z: (rng.Float64() - 0.5) * 70,
				},
			}
		}
		nsteps := 1 + int(steps%6)
		frac := float64(movedPct%101) / 100
		scale := float64(scalePct) / 4 // up to ~64 units: drift past cell and domain bounds
		b := NewBuilder(domain, 1+rng.Intn(12))
		for step := 0; step < nsteps; step++ {
			got := b.Step(bodies)
			want := BuildKeyed(bodies, domain, b.leafCap)
			if err := diffTrees(got, want); err != nil {
				t.Fatalf("seed=%d step=%d frac=%g scale=%g: %v", seed, step, frac, scale, err)
			}
			jitter(rng, bodies, frac, scale)
		}
	})
}

// TestBuilderAliasedInput passes a tree's own leaves back in. The Builder
// keeps one snapshot and a step overwrites it in place, so here the step
// would gather from the slice it is writing; it must copy the input first
// and still produce BuildKeyed's tree.
func TestBuilderAliasedInput(t *testing.T) {
	domain := testDomain()
	rng := rand.New(rand.NewSource(5))
	bodies := dist.MustNamed("plummer", 3000, 23).Particles
	sorted, _ := SortByKey(bodies, domain.Cube())
	b := NewBuilder(domain, 8)
	// Sorted input makes the snapshot's order the input order, so passing
	// the snapshot back satisfies the warm path's ID guard.
	b.Step(sorted)
	for step := 0; step < 4; step++ {
		// The leftmost leaf starts the snapshot; its slice runs to the end.
		var first int32
		b.Tree().WalkLeaves(func(l int32) bool { first = l; return false })
		snap := b.Tree().Particles(first)[:len(bodies)]
		jitter(rng, snap, 0.5, 4.0)
		want := BuildKeyed(append([]dist.Particle(nil), snap...), domain, 8)
		got := b.Step(snap)
		if !b.Last().Cold {
			t.Fatalf("step %d: input aliasing the snapshot took the warm path", step)
		}
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// One leaf's particles alias the snapshot too.
	tr := b.Tree()
	var leaf int32
	tr.WalkLeaves(func(l int32) bool { leaf = l; return tr.Count(l) < 2 })
	in := tr.Particles(leaf)
	want := BuildKeyed(append([]dist.Particle(nil), in...), domain, 8)
	if err := diffTrees(b.Step(in), want); err != nil {
		t.Fatalf("one leaf: %v", err)
	}
}
