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

// diffNodes compares two trees node for node, field for field, with
// bitwise float comparison — the two-clock rule demands the incremental
// build be indistinguishable from the from-scratch build, not merely
// numerically close.
func diffNodes(a, b *Node, path string) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: nil mismatch (got %v, want %v)", path, a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.Box != b.Box {
		return fmt.Errorf("%s: box %+v vs %+v", path, a.Box, b.Box)
	}
	if a.Key != b.Key {
		return fmt.Errorf("%s: key %+v vs %+v", path, a.Key, b.Key)
	}
	if a.Count != b.Count {
		return fmt.Errorf("%s: count %d vs %d", path, a.Count, b.Count)
	}
	if math.Float64bits(a.Mass) != math.Float64bits(b.Mass) {
		return fmt.Errorf("%s: mass %x vs %x", path, math.Float64bits(a.Mass), math.Float64bits(b.Mass))
	}
	if math.Float64bits(a.COM.X) != math.Float64bits(b.COM.X) ||
		math.Float64bits(a.COM.Y) != math.Float64bits(b.COM.Y) ||
		math.Float64bits(a.COM.Z) != math.Float64bits(b.COM.Z) {
		return fmt.Errorf("%s: COM %v vs %v", path, a.COM, b.COM)
	}
	if a.Load != b.Load {
		return fmt.Errorf("%s: load %d vs %d", path, a.Load, b.Load)
	}
	if (a.Exp == nil) != (b.Exp == nil) {
		return fmt.Errorf("%s: expansion presence mismatch", path)
	}
	if a.IsLeaf() != b.IsLeaf() {
		return fmt.Errorf("%s: leafness %v vs %v", path, a.IsLeaf(), b.IsLeaf())
	}
	if len(a.Particles) != len(b.Particles) {
		return fmt.Errorf("%s: leaf size %d vs %d", path, len(a.Particles), len(b.Particles))
	}
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			return fmt.Errorf("%s: leaf particle %d: %+v vs %+v", path, i, a.Particles[i], b.Particles[i])
		}
	}
	for o := 0; o < 8; o++ {
		if err := diffNodes(a.Children[o], b.Children[o], fmt.Sprintf("%s/%d", path, o)); err != nil {
			return err
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
				if err := diffNodes(got.Root, want.Root, "root"); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				rep := b.Last()
				if step == 0 && !rep.Cold {
					t.Fatal("first step must be cold")
				}
				if step > 0 && rep.Cold && tc.frac < 0.5 {
					t.Fatalf("step %d unexpectedly cold under light drift: %+v", step, rep)
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
		if err := diffNodes(got.Root, want.Root, "root"); err != nil {
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
	if err := diffNodes(got.Root, BuildKeyed(next, domain, 8).Root, "root"); err != nil {
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
	if err := diffNodes(got.Root, BuildKeyed(reordered, domain, 8).Root, "root"); err != nil {
		t.Fatal(err)
	}

	// A length change must force a cold build.
	shrunk := reordered[:900]
	got = b.Step(shrunk)
	if !b.Last().Cold {
		t.Fatal("length change did not force a cold build")
	}
	if err := diffNodes(got.Root, BuildKeyed(shrunk, domain, 8).Root, "root"); err != nil {
		t.Fatal(err)
	}

	// Reset drops all retained state.
	b.Reset()
	got = b.Step(shrunk)
	if !b.Last().Cold {
		t.Fatal("step after Reset was not cold")
	}
	if err := diffNodes(got.Root, BuildKeyed(shrunk, domain, 8).Root, "root"); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderArenaRecycle(t *testing.T) {
	// Heavy motion every step accumulates rebuild garbage until the
	// arena-stale check forces a cold rebuild; correctness must hold
	// through the recycle.
	domain := testDomain()
	rng := rand.New(rand.NewSource(13))
	bodies := dist.MustNamed("plummer", 800, 31).Particles
	b := NewBuilder(domain, 8)
	recycled := false
	for step := 0; step < 30; step++ {
		got := b.Step(bodies)
		if step > 0 && b.Last().Cold {
			recycled = true
		}
		want := BuildKeyed(bodies, domain, 8)
		if err := diffNodes(got.Root, want.Root, "root"); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		jitter(rng, bodies, 1.0, 10.0)
	}
	if !recycled {
		t.Fatal("30 all-moved steps never triggered an arena recycle")
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
		if err := diffNodes(got.Root, want.Root, "root"); err != nil {
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
			if err := diffNodes(got.Root, want.Root, "root"); err != nil {
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
		var first *Node
		b.Tree().WalkLeaves(func(l *Node) bool { first = l; return false })
		snap := first.Particles[:len(bodies)]
		jitter(rng, snap, 0.5, 4.0)
		want := BuildKeyed(append([]dist.Particle(nil), snap...), domain, 8)
		got := b.Step(snap)
		if !b.Last().Cold {
			t.Fatalf("step %d: input aliasing the snapshot took the warm path", step)
		}
		if err := diffNodes(got.Root, want.Root, "root"); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// One leaf's particles alias the snapshot too.
	var leaf *Node
	b.Tree().WalkLeaves(func(l *Node) bool { leaf = l; return l.Count < 2 })
	want := BuildKeyed(append([]dist.Particle(nil), leaf.Particles...), domain, 8)
	if err := diffNodes(b.Step(leaf.Particles).Root, want.Root, "root"); err != nil {
		t.Fatalf("one leaf: %v", err)
	}
}
