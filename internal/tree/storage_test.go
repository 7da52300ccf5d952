package tree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/vec"
)

// A tree costs its nodes: every build counts its cells first and takes one
// node slice of exactly that length, filled in DFS pre-order, whether or
// not the build fans out to goroutines. These tests watch every slice a
// build takes.

// recordNodes makes every node slice a build takes visible to the test:
// the returned function hands over the slices taken since its last call.
func recordNodes(t *testing.T) func() [][]Node {
	t.Helper()
	var got [][]Node
	prev := newNodes
	newNodes = func(n int) []Node {
		s := prev(n)
		got = append(got, s)
		return s
	}
	t.Cleanup(func() { newNodes = prev })
	return func() [][]Node {
		s := got
		got = nil
		return s
	}
}

// checkExact reports whether s holds exactly whole subtrees, root after
// root, each in DFS pre-order, with no slot and no capacity left over. It
// returns the number of roots.
func checkExact(s []Node) (int, error) {
	if len(s) != cap(s) {
		return 0, fmt.Errorf("node slice len %d, cap %d", len(s), cap(s))
	}
	roots := 0
	for i := 0; i < len(s); roots++ {
		var err error
		walkAll(&s[i], func(n *Node) bool {
			if i >= len(s) || n != &s[i] {
				err = fmt.Errorf("node %v of root %d is not at slot %d of %d", n.Key, roots, i, len(s))
				return false
			}
			i++
			return true
		})
		if err != nil {
			return roots, err
		}
	}
	return roots, nil
}

// checkOneTree asserts s is exactly the tree under root: len == cap ==
// CountNodes(root), root first.
func checkOneTree(t *testing.T, what string, s []Node, root *Node) {
	t.Helper()
	roots, err := checkExact(s)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if roots != 1 || root != &s[0] || len(s) != CountNodes(root) {
		t.Fatalf("%s: %d roots, root first %v, len %d, CountNodes %d", what, roots, root == &s[0], len(s), CountNodes(root))
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
	taken := recordNodes(t)
	for _, in := range inputs {
		for _, leafCap := range []int{1, 8, 64} {
			what := fmt.Sprintf("%s/s=%d", in.name, leafCap)
			var trees [3]*Tree
			for r := range workerRegimes {
				inRegime(t, r, func() {
					trees[r] = BuildKeyed(in.ps, in.domain, leafCap)
					got := taken()
					if len(got) != 1 {
						t.Fatalf("%s %s: %d node slices", what, workerRegimes[r].name, len(got))
					}
					checkOneTree(t, what+" "+workerRegimes[r].name, got[0], trees[r].Root)
				})
				if err := diffNodes(trees[r].Root, trees[0].Root, "root"); err != nil {
					t.Fatalf("%s: %s differs from fanned-out build: %v", what, workerRegimes[r].name, err)
				}
			}
			if err := trees[0].Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

func TestNodeStorageExactSubtreeAndPushDown(t *testing.T) {
	s := dist.MustNamed("g", 30000, 41)
	rootBox := s.Domain.Cube()
	whole := BuildKeyed(s.Particles, s.Domain, 8)
	sorted, ks := SortByKey(s.Particles, rootBox)
	// Zone cuts at particle ranks straddle leaves, which MaximalCells
	// pushes down.
	cuts := []uint64{0, ks[7001], ks[15003], ks[22999], ^uint64(0)}
	taken := recordNodes(t)
	for r := range workerRegimes {
		inRegime(t, r, func() {
			reg := workerRegimes[r].name
			for o, c := range whole.Root.Children {
				if c == nil {
					continue
				}
				var in []dist.Particle
				for i := range sorted {
					if lo, hi := c.Key.Range(); ks[i] >= lo && ks[i] < hi {
						in = append(in, sorted[i])
					}
				}
				taken()
				sub := BuildSubtreeKeyed(in, rootBox, c.Box, c.Key, 8)
				got := taken()
				if len(got) != 1 {
					t.Fatalf("%s octant %d: %d node slices", reg, o, len(got))
				}
				checkOneTree(t, fmt.Sprintf("%s BuildSubtreeKeyed octant %d", reg, o), got[0], sub)
				if err := diffNodes(sub, c, "root"); err != nil {
					t.Fatalf("%s octant %d: %v", reg, o, err)
				}
			}
			pushDowns := 0
			for z := 0; z+1 < len(cuts); z++ {
				taken()
				maximalCells(whole.Root, cuts[z], cuts[z+1], rootBox, 8)
				got := taken()
				for i, nodes := range got {
					roots, err := checkExact(nodes)
					if err != nil {
						t.Fatalf("%s zone %d push-down %d: %v", reg, z, i, err)
					}
					if roots < 1 || roots > 8 {
						t.Fatalf("%s zone %d push-down %d: %d octant subtrees", reg, z, i, roots)
					}
				}
				pushDowns += len(got)
			}
			if pushDowns == 0 {
				t.Fatalf("%s: no zone cut pushed a leaf down", reg)
			}
		})
	}
}

func TestNodeStorageExactBuilderSteps(t *testing.T) {
	domain := testDomain()
	taken := recordNodes(t)
	for r := range workerRegimes {
		inRegime(t, r, func() {
			reg := workerRegimes[r].name
			rng := rand.New(rand.NewSource(13))
			bodies := dist.MustNamed("plummer", 2*parallelBuildMin, 31).Particles
			b := NewBuilder(domain, 8)
			recycled, rebuilt := false, false
			var snapshot *dist.Particle
			for step := 0; step < 30; step++ {
				taken()
				tr := b.Step(bodies)
				got := taken()
				rep := b.Last()
				if rep.Cold {
					if len(got) != 1 {
						t.Fatalf("%s step %d: cold build took %d node slices", reg, step, len(got))
					}
					checkOneTree(t, fmt.Sprintf("%s step %d cold", reg, step), got[0], tr.Root)
					recycled = recycled || step > 0
					snapshot = &b.ps[0]
				} else {
					total := 0
					for i, nodes := range got {
						checkOneTree(t, fmt.Sprintf("%s step %d rebuild %d", reg, step, i), nodes, &nodes[0])
						total += len(nodes)
					}
					if total != rep.Rebuilt {
						t.Fatalf("%s step %d: rebuilt %d nodes into slices of %d", reg, step, rep.Rebuilt, total)
					}
					rebuilt = rebuilt || total > 0
					if &b.ps[0] != snapshot {
						t.Fatalf("%s step %d: a warm step moved the snapshot", reg, step)
					}
				}
				if err := diffNodes(tr.Root, BuildKeyed(bodies, domain, 8).Root, "root"); err != nil {
					t.Fatalf("%s step %d: %v", reg, step, err)
				}
				// Heavy motion: rebuild garbage piles up until arenaStale
				// recycles it with a cold build.
				jitter(rng, bodies, 0.3, 6.0)
			}
			if !recycled || !rebuilt {
				t.Fatalf("%s: recycled %v, rebuilt %v in 30 steps", reg, recycled, rebuilt)
			}
		})
	}
}
