package tree

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/vec"
)

// A tree is its columns: every build writes its nodes in DFS pre-order
// straight into the columns the sweep reads, whether or not it fans out to
// goroutines, and a Builder keeps those columns from one step to the next.
// These tests watch the columns.

// checkColumns asserts tr's storage is whole: every node column as long as
// the tree, every particle column as long as the snapshot, nothing past
// the root's subtree, and a DFS pre-order layout whose particle ranges
// nest (Validate).
func checkColumns(t *testing.T, what string, tr *Tree) {
	t.Helper()
	n, m := tr.NumNodes(), len(tr.ps)
	for _, l := range []int{len(tr.ComX), len(tr.ComY), len(tr.ComZ), len(tr.Mass), len(tr.Side), len(tr.Exp),
		len(tr.Skip), len(tr.Lo), len(tr.Hi), len(tr.Key), len(tr.Load)} {
		if l != n {
			t.Fatalf("%s: a node column of %d for %d nodes", what, l, n)
		}
	}
	for _, l := range []int{len(tr.ks), len(tr.ID), len(tr.PX), len(tr.PY), len(tr.PZ), len(tr.PM)} {
		if l != m {
			t.Fatalf("%s: a particle column of %d for %d particles", what, l, m)
		}
	}
	if int(tr.Skip[0]) != n || tr.Lo[0] != 0 || int(tr.Hi[0]) != m {
		t.Fatalf("%s: root spans %d nodes and particles [%d, %d) of %d and %d", what, tr.Skip[0], tr.Lo[0], tr.Hi[0], n, m)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// workerRegimes are the three ways a host runs a build: fanned out to
// goroutines, serial because the worker cap is one, and serial because
// GOMAXPROCS is one.
var workerRegimes = []struct {
	name       string
	procs, cap int
	fanout     bool
}{
	{"fanout", 4, 0, true},
	{"maxworkers=1", 4, 1, false},
	{"gomaxprocs=1", 1, 0, false},
}

// inRegime runs fn with GOMAXPROCS and the worker cap set as the regime
// says.
func inRegime(t *testing.T, r int, fn func()) {
	t.Helper()
	reg := workerRegimes[r]
	oldProcs := runtime.GOMAXPROCS(reg.procs)
	oldCap := compute.SetMaxWorkers(reg.cap)
	defer func() {
		compute.SetMaxWorkers(oldCap)
		runtime.GOMAXPROCS(oldProcs)
	}()
	if buildParallel(parallelBuildMin) != reg.fanout {
		t.Fatalf("%s: fan-out is %v", reg.name, !reg.fanout)
	}
	fn()
}

// coincident returns n particles of which every other one sits on one
// point, so the build reaches MaxDepth there.
func coincident(n int) []dist.Particle {
	rng := rand.New(rand.NewSource(int64(n)))
	ps := make([]dist.Particle, n)
	for i := range ps {
		ps[i] = dist.Particle{ID: i, Mass: 1 + rng.Float64(), Pos: vec.V3{X: 1.25, Y: -3.5, Z: 7.75}}
		if i%2 == 1 {
			ps[i].Pos = vec.V3{X: (rng.Float64() - 0.5) * 70, Y: (rng.Float64() - 0.5) * 70, Z: (rng.Float64() - 0.5) * 70}
		}
	}
	return ps
}

func TestNodeStorageExactColdBuilds(t *testing.T) {
	type input struct {
		name   string
		ps     []dist.Particle
		domain vec.Box
	}
	var inputs []input
	for _, name := range []string{"g", "uniform", "plummer"} {
		for _, n := range []int{0, 1, 8, 9, 8191, 8192, 50000} {
			s := dist.MustNamed(name, n, 1994)
			inputs = append(inputs, input{fmt.Sprintf("%s/n=%d", name, n), s.Particles, s.Domain})
		}
	}
	for _, n := range []int{40, 20000} {
		inputs = append(inputs, input{fmt.Sprintf("coincident/n=%d", n), coincident(n), testDomain()})
	}
	for _, in := range inputs {
		for _, leafCap := range []int{1, 8, 64} {
			what := fmt.Sprintf("%s/s=%d", in.name, leafCap)
			var trees [3]*Tree
			for r := range workerRegimes {
				inRegime(t, r, func() {
					trees[r] = BuildKeyed(in.ps, in.domain, leafCap)
					count, _ := countKeyedRange(trees[r].ks, 0, leafCap)
					if trees[r].NumNodes() != count {
						t.Fatalf("%s %s: %d nodes, the count pass says %d", what, workerRegimes[r].name, trees[r].NumNodes(), count)
					}
					checkColumns(t, what+" "+workerRegimes[r].name, trees[r])
				})
				if err := diffTrees(trees[r], trees[0]); err != nil {
					t.Fatalf("%s: %s differs from fanned-out build: %v", what, workerRegimes[r].name, err)
				}
			}
		}
	}
}

func TestNodeStorageExactSubtreeAndPushDown(t *testing.T) {
	s := dist.MustNamed("g", 30000, 41)
	rootBox := s.Domain.Cube()
	whole := BuildKeyed(s.Particles, s.Domain, 8)
	ks := whole.ks
	// Zone cuts at particle ranks straddle leaves, which MaximalCells
	// pushes down.
	cuts := []uint64{0, ks[7001], ks[15003], ks[22999], ^uint64(0)}
	main, parts := whole.NumNodes(), len(whole.ps)
	for r := range workerRegimes {
		inRegime(t, r, func() {
			reg := workerRegimes[r].name
			for c := int32(1); c < whole.Skip[0]; c = whole.Skip[c] {
				sub := BuildSubtreeKeyed(whole.Particles(c), rootBox, whole.Cell(c), 8)
				checkColumns(t, fmt.Sprintf("%s BuildSubtreeKeyed %v", reg, whole.Cell(c)), sub)
				if err := diffSubtrees(sub, 0, whole, c); err != nil {
					t.Fatalf("%s %v: %v", reg, whole.Cell(c), err)
				}
			}
			pushDowns := 0
			for z := 0; z+1 < len(cuts); z++ {
				whole.truncate(main, parts)
				covered := 0
				for _, c := range maximalCells(whole, cuts[z], cuts[z+1]) {
					covered += whole.Count(c)
				}
				// Push-down appends whole subtrees, root after root, over
				// ranges of the leaves they split: no particle is copied.
				for c := int32(main); c < int32(whole.NumNodes()); c = whole.Skip[c] {
					if err := whole.validate(c); err != nil {
						t.Fatalf("%s zone %d push-down %d: %v", reg, z, c, err)
					}
					pushDowns++
				}
				if len(whole.ps) != parts || covered == 0 {
					t.Fatalf("%s zone %d: %d particles after push-down (%d before), %d covered", reg, z, len(whole.ps), parts, covered)
				}
			}
			if pushDowns == 0 {
				t.Fatalf("%s: no zone cut pushed a leaf down", reg)
			}
		})
	}
}

func TestNodeStorageExactBuilderSteps(t *testing.T) {
	domain := testDomain()
	for r := range workerRegimes {
		inRegime(t, r, func() {
			reg := workerRegimes[r].name
			rng := rand.New(rand.NewSource(13))
			bodies := dist.MustNamed("plummer", 2*parallelBuildMin, 31).Particles
			b := NewBuilder(domain, 8)
			var first *Tree
			refreshed, rebuilt := false, false
			for step := 0; step < 30; step++ {
				var kind *uint8
				var snapshot *dist.Particle
				capacity := 0
				if tr := b.Tree(); tr != nil {
					// A zone cut appends push-down fragments; the next
					// step drops them.
					tr.MaximalCells(0, tr.ks[len(tr.ks)/3], ^uint64(0), func(int32) {})
					kind, snapshot, capacity = &tr.Kind[:1][0], &tr.ps[0], cap(tr.Kind)
				}
				tr := b.Step(bodies)
				rep := b.Last()
				if step == 0 {
					first = tr
				} else {
					if tr != first || &tr.ps[0] != snapshot {
						t.Fatalf("%s step %d: a step moved the tree or its snapshot", reg, step)
					}
					if tr.NumNodes() <= capacity && &tr.Kind[:1][0] != kind {
						t.Fatalf("%s step %d: %d nodes fit %d but the columns moved", reg, step, tr.NumNodes(), capacity)
					}
				}
				checkColumns(t, fmt.Sprintf("%s step %d", reg, step), tr)
				refreshed = refreshed || (!rep.Cold && rep.Rebuilt == 0)
				rebuilt = rebuilt || rep.Rebuilt > 0
				if err := diffTrees(tr, BuildKeyed(bodies, domain, 8)); err != nil {
					t.Fatalf("%s step %d: %v", reg, step, err)
				}
				// Motion that changes the shape on some steps and not on
				// others.
				if step%3 == 0 {
					jitter(rng, bodies, 0.3, 6.0)
				}
			}
			if !refreshed || !rebuilt {
				t.Fatalf("%s: refreshed %v, rebuilt %v in 30 steps", reg, refreshed, rebuilt)
			}
		})
	}
}

// TestNodeStorageColumnsPointerFree: the collector scans nothing but Exp in
// a tree. Every other column's element type holds no pointer.
func TestNodeStorageColumnsPointerFree(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return hasPointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	columns := 0
	for _, ty := range []reflect.Type{reflect.TypeOf(Tree{}), reflect.TypeOf(Cols{})} {
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if f.Type.Kind() != reflect.Slice {
				continue
			}
			columns++
			if pointers := hasPointers(f.Type.Elem()); pointers != (f.Name == "Exp") {
				t.Errorf("column %s.%s of %v: pointers %v", ty.Name(), f.Name, f.Type.Elem(), pointers)
			}
		}
	}
	if columns < 20 {
		t.Fatalf("only %d columns found", columns)
	}
}

// TestNodeStorageBuilderAllocs: in steady state a Builder allocates
// nothing. A warm step on particles whose cells kept their shape refreshes
// in place, and a cold build of a set no larger than the last one — every
// DPDA rank-step is cold — reuses the columns and the sort's buffers.
func TestNodeStorageBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	domain := testDomain()
	bodies := dist.MustNamed("plummer", 4000, 3).Particles // below the build fan-out
	b := NewBuilder(domain, 8)
	b.Step(bodies)
	if allocs := testing.AllocsPerRun(20, func() { b.Step(bodies) }); allocs != 0 || b.Last().Cold || b.Last().Rebuilt != 0 {
		t.Errorf("warm step: %v allocations, report %+v", allocs, b.Last())
	}
	// Shuffled input defeats the warm path's ID guard: every step is cold,
	// over ever fewer particles — a subset's tree is never larger.
	rng := rand.New(rand.NewSource(1))
	in := append([]dist.Particle(nil), bodies...)
	allocs := testing.AllocsPerRun(20, func() {
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		in = in[:len(in)-50]
		b.Step(in)
	})
	if allocs != 0 || !b.Last().Cold {
		t.Errorf("cold step: %v allocations, report %+v", allocs, b.Last())
	}
	if err := diffTrees(b.Tree(), BuildKeyed(in, domain, 8)); err != nil {
		t.Fatal(err)
	}
}
