package let

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// TestSectionWireWords pins the wire model on a section of an internal
// node over three particles and a leaf holding one of them, with a stride
// of five expansion floats: 2 header + (6+5) internal + (2+4·1) leaf
// words. Costing either node as the other kind gives another count.
func TestSectionWireWords(t *testing.T) {
	s := Section{ExpStride: 5}
	s.Kind = []uint8{tree.KindInternal, tree.KindLeaf}
	s.Lo = []int32{0, 0}
	s.Hi = []int32{3, 1}
	if got, want := s.WireWords(), 2+(6+5)+(2+4*1); got != want {
		t.Fatalf("WireWords = %d, want %d", got, want)
	}
}

// realMAC is the acceptance test a receiver replays (tree.Accepts'
// arithmetic over a shipped summary).
func realMAC(com vec.V3, side float64, pos vec.V3, alpha float64) bool {
	d := pos.Dist(com)
	return d != 0 && side/d < alpha
}

// A miniature LET world without parbh: the domain's eight octants are the
// branch cells. cell.trees holds one subtree per owner — a cell split
// between two owners is the degenerate multi-owner branch whose replies
// function shipping folds in owner order.
type cell struct {
	owners []int
	trees  []*tree.Tree
	count  int
	com    vec.V3
	mass   float64
	exp    *phys.Expansion
	box    vec.Box
}

// world runs in force mode when degree < 0 and in potential mode at that
// multipole degree otherwise; a potential travels as the X of a vec.V3, so
// one oracle and one comparison serve both.
type world struct {
	domain  vec.Box
	degree  int
	cells   [8]cell
	topCom  vec.V3
	topMass float64
	topExp  *phys.Expansion
	parts   map[int][]dist.Particle // by owner
}

const (
	testLeafCap = 4
	testExAdd   = 3.25
)

// newWorld deals the particles to owners: octant o to owner o, except
// octant 0 (kept to ≤ leafCap particles: a leaf-cell branch), octant 1
// (emptied: a zero-count child) and octant 7 (split between owners 7 and
// 8). Building twice gives two identical worlds whose Load counters the
// oracle and the flat kernel charge separately.
func newWorld(ps []dist.Particle, domain vec.Box, degree int) *world {
	w := &world{domain: domain, degree: degree, parts: map[int][]dist.Particle{}}
	for i, p := range ps {
		oct := domain.OctantOf(p.Pos)
		owner := oct
		switch {
		case oct == 1, oct == 0 && len(w.parts[0]) == testLeafCap:
			continue
		case oct == 7 && i%2 == 0:
			owner = 8
		}
		w.parts[owner] = append(w.parts[owner], p)
	}
	for oct := range w.cells {
		c := &w.cells[oct]
		c.box = domain.Octant(oct)
		for _, owner := range []int{oct, oct + 1} {
			if owner != oct && oct != 7 || len(w.parts[owner]) == 0 {
				continue
			}
			tr := tree.BuildKeyed(w.parts[owner], c.box, testLeafCap)
			c.owners, c.trees = append(c.owners, owner), append(c.trees, tr)
			c.count += tr.Count(0)
			c.com = c.com.Add(tr.COM(0).Scale(tr.Mass[0]))
			c.mass += tr.Mass[0]
		}
		if c.count > 0 {
			w.topCom = w.topCom.Add(c.com)
			w.topMass += c.mass
			c.com = c.com.Scale(1 / c.mass)
		}
	}
	w.topCom = w.topCom.Scale(1 / w.topMass)
	if degree < 0 {
		return w
	}
	// Summaries evaluate an expansion of everything below them; sections
	// and local subtrees carry their trees' own.
	w.topExp = phys.NewExpansion(degree, w.topCom)
	for oct := range w.cells {
		c := &w.cells[oct]
		c.exp = phys.NewExpansion(degree, c.com)
		for i, tr := range c.trees {
			tr.BuildExpansions(degree)
			for _, p := range w.parts[c.owners[i]] {
				c.exp.AddParticle(p.Mass, p.Pos)
				w.topExp.AddParticle(p.Mass, p.Pos)
			}
		}
	}
	return w
}

// cluster is an accepted summary's term; subtree is what the recursive
// traversal computes for q from node n of tr down.
func (w *world) cluster(q dist.Particle, com vec.V3, mass float64, exp *phys.Expansion, eps float64) vec.V3 {
	if w.degree >= 0 {
		return vec.V3{X: exp.EvalPotential(q.Pos)}
	}
	return phys.Accel(q.Pos, com, mass, eps)
}

func (w *world) subtree(tr *tree.Tree, n int32, q dist.Particle, alpha, eps float64, st *tree.Stats) vec.V3 {
	if w.degree >= 0 {
		return vec.V3{X: tr.PotentialFrom(n, q.Pos, q.ID, alpha, st)}
	}
	return tr.AccelFrom(n, q.Pos, q.ID, alpha, eps, st)
}

func (c *cell) localTo(me int) *tree.Tree {
	if len(c.owners) == 1 && c.owners[0] == me {
		return c.trees[0]
	}
	return nil
}

// oracle is function shipping's traversal (the recursion parbh's tests
// keep: traverseForce + serveForce, traversePot + servePot) for one
// particle of owner me, on the trees.
func (w *world) oracle(me int, q dist.Particle, alpha, eps float64, st *tree.Stats) (vec.V3, float64) {
	var extra float64
	st.MACTests++
	if realMAC(w.topCom, w.domain.LongestSide(), q.Pos, alpha) {
		st.PC++
		return w.cluster(q, w.topCom, w.topMass, w.topExp, eps), extra + testExAdd
	}
	var a vec.V3
	var shipped []*cell
	for oct := range w.cells {
		c := &w.cells[oct]
		switch {
		case c.count == 0:
			a = a.Add(vec.V3{})
		case c.localTo(me) != nil:
			a = a.Add(w.subtree(c.localTo(me), 0, q, alpha, eps, st))
		case c.count <= testLeafCap:
			shipped = append(shipped, c)
			a = a.Add(vec.V3{})
		default:
			st.MACTests++
			if realMAC(c.com, c.box.LongestSide(), q.Pos, alpha) {
				st.PC++
				extra += testExAdd
				a = a.Add(w.cluster(q, c.com, c.mass, c.exp, eps))
			} else {
				shipped = append(shipped, c)
				a = a.Add(vec.V3{})
			}
		}
	}
	for _, c := range shipped {
		for _, tr := range c.trees {
			if tr.IsLeaf(0) {
				a = a.Add(w.subtree(tr, 0, q, alpha, eps, st))
				continue
			}
			var r vec.V3
			for ch := int32(1); ch < tr.Skip[0]; ch = tr.Skip[ch] {
				r = r.Add(w.subtree(tr, ch, q, alpha, eps, st))
			}
			tr.Load[0]++
			a = a.Add(r)
		}
	}
	return a, extra
}

// flat builds owner me's locally essential tree the way parbh's
// letExchange does — a main region, the owner's tree under its own cell,
// sections under the others — and runs ForceAll or PotentialAll: local
// nodes take their Load charges in their tree, section nodes through the
// deltas written back here to w's trees.
func (w *world) flat(t *testing.T, me int, query []dist.Particle, alpha, eps float64) ([]vec.V3, []float64, tree.Stats) {
	cells := NewCells(w.domain, 9)
	root := cells.AddTop(w.domain)
	for oct := range w.cells {
		if c := &w.cells[oct]; c.count > 0 {
			cells.AddBranch(c.box, c.owners)
		}
	}
	cells.Close(root)
	dom := Domain{Bounds: BoundsOf(w.parts[me]), Cells: cells, Rank: me}
	main := &Main{}
	top := main.AddTop(w.topCom, w.topMass, w.domain.LongestSide(), w.topExp)
	var branch [8]int32
	for oct := range w.cells {
		if c := &w.cells[oct]; c.count == 0 {
			main.AddZero()
		} else {
			branch[oct] = main.AddBranch(c.count <= testLeafCap, c.com, c.mass, c.box.LongestSide(), c.exp, len(c.owners))
		}
	}
	main.CloseInternal(top)
	var own *tree.Tree
	for oct := range w.cells {
		if tr := w.cells[oct].localTo(me); tr != nil {
			own = tr
		}
	}
	fl := &Flat{}
	fl.Reset(main, own)
	var sent []*tree.Tree
	var sentNodes [][]int32
	for oct := range w.cells {
		c := &w.cells[oct]
		switch {
		case c.count == 0:
		case c.localTo(me) != nil:
			fl.SetOwn(branch[oct], 0)
		default:
			for i, tr := range c.trees {
				// A shared cell's owners each see only their own summary, so
				// (as for a leaf cell) they ship unconditionally.
				sec, nodes, _ := BuildSection(tr, 0, &dom, alpha, w.degree >= 0, c.count <= testLeafCap || len(c.trees) > 1, new(Scratch))
				if sec == nil {
					continue
				}
				sec.Exp = sectionExps(tr, nodes)
				fl.AddSection(c.owners[i], sec, branch[oct], i)
				sent, sentNodes = append(sent, tr), append(sentNodes, nodes)
			}
		}
	}
	fl.Seal()
	out, extra := make([]vec.V3, len(query)), make([]float64, len(query))
	st := sweepAll(fl, w.degree >= 0, query, alpha, eps, out, extra)
	if fl.NumSections() != len(sent) {
		t.Fatalf("owner %d: %d sections, %d shipped", me, fl.NumSections(), len(sent))
	}
	for si := range sent {
		ords, deltas := fl.SectionDeltas(si, nil, nil)
		for j, ord := range ords {
			sent[si].Load[sentNodes[si][ord]] += deltas[j]
		}
	}
	fl.Release()
	return out, extra, st
}

// sectionExps is what decoding a section shipped withExp yields: the
// owner's expansions, node for node.
func sectionExps(tr *tree.Tree, nodes []int32) []*phys.Expansion {
	exps := make([]*phys.Expansion, len(nodes))
	for j, n := range nodes {
		exps[j] = tr.Exp[n]
	}
	return exps
}

// sweepAll runs fl's driver for the mode, a potential landing in out's X.
func sweepAll(fl *Flat, potential bool, query []dist.Particle, alpha, eps float64, out []vec.V3, extra []float64) tree.Stats {
	if !potential {
		return fl.ForceAll(query, alpha, eps, testExAdd, out, extra)
	}
	pot := make([]float64, len(query))
	st := fl.PotentialAll(query, alpha, testExAdd, pot, extra)
	for i, v := range pot {
		out[i] = vec.V3{X: v}
	}
	return st
}

func (w *world) loads() []int64 {
	var ls []int64
	for oct := range w.cells {
		for _, tr := range w.cells[oct].trees {
			ls = append(ls, tr.Load...)
		}
	}
	return ls
}

func sameBits(a, b vec.V3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestFlatForceAllMatchesFunctionShippingOracle drives let.Flat.ForceAll
// and PotentialAll directly — no parbh — against the recursion
// arranged as function shipping arranges it, and demands bit-identical
// accelerations (potentials) and extra charges, equal Stats, and equal Load
// on every node of every owner's tree (local charges and returned section
// deltas alike).
func TestFlatForceAllMatchesFunctionShippingOracle(t *testing.T) {
	s := dist.MustNamed("g", 2400, 77)
	for _, degree := range []int{-1, 0, 3} {
		summaries := false
		for _, procs := range []int{1, 2, 7} {
			for _, alpha := range []float64{0.4, 0.67, 2.5} {
				old := runtime.GOMAXPROCS(procs)
				want, got := newWorld(s.Particles, s.Domain, degree), newWorld(s.Particles, s.Domain, degree)
				deferred := false
				for me := range got.parts {
					var wantSt tree.Stats
					acc, extra, gotSt := got.flat(t, me, got.parts[me], alpha, 0.01)
					for i, q := range want.parts[me] {
						a, ex := want.oracle(me, q, alpha, 0.01, &wantSt)
						if !sameBits(acc[i], a) {
							t.Fatalf("degree %d procs %d α=%v owner %d particle %d: flat %v oracle %v", degree, procs, alpha, me, q.ID, acc[i], a)
						}
						if math.Float64bits(extra[i]) != math.Float64bits(ex) {
							t.Fatalf("degree %d procs %d α=%v owner %d particle %d: extra %v oracle %v", degree, procs, alpha, me, q.ID, extra[i], ex)
						}
						summaries = summaries || ex > testExAdd
					}
					if gotSt != wantSt {
						t.Fatalf("degree %d procs %d α=%v owner %d: stats %+v oracle %+v", degree, procs, alpha, me, gotSt, wantSt)
					}
				}
				wl, gl := want.loads(), got.loads()
				for i := range wl {
					if gl[i] != wl[i] {
						t.Fatalf("degree %d procs %d α=%v: load %d is %d, oracle %d", degree, procs, alpha, i, gl[i], wl[i])
					}
					deferred = deferred || wl[i] != 0
				}
				if !deferred {
					t.Fatal("no load was charged anywhere")
				}
				runtime.GOMAXPROCS(old)
			}
		}
		if !summaries {
			t.Fatalf("degree %d: no particle accepted two replicated summaries", degree)
		}
	}
}

// TestFlatRootIsRemoteBranch covers the traversal whose root is itself a
// deferred branch: the main sweep contributes an exact +0 and the result
// is the fold of the sections alone, for query points that belong to no
// tree (packed in the order given), in force mode and in potential mode.
func TestFlatRootIsRemoteBranch(t *testing.T) {
	s := dist.MustNamed("uniform", 300, 3)
	rng := rand.New(rand.NewSource(9))
	for _, degree := range []int{-1, 2} {
		for _, leafCell := range []bool{false, true} {
			w := &world{degree: degree}
			owner := tree.BuildKeyed(s.Particles, s.Domain, testLeafCap)
			oracle := tree.BuildKeyed(s.Particles, s.Domain, testLeafCap)
			if degree >= 0 {
				owner.BuildExpansions(degree)
				oracle.BuildExpansions(degree)
			}
			var query []dist.Particle
			for i := 0; i < 21; i++ {
				query = append(query, dist.Particle{ID: 1000 + i, Mass: 1, Pos: s.Domain.Min.Add(s.Domain.Size().Scale(rng.Float64()))})
			}
			sec, nodes, _ := BuildSection(owner, 0, wholeDomain(s.Domain, BoundsOf(query)), 0.67, degree >= 0, true, new(Scratch))
			main := &Main{}
			b := main.AddBranch(leafCell, owner.COM(0), owner.Mass[0], s.Domain.LongestSide(), owner.Exp[0], 1)
			fl := &Flat{}
			fl.Reset(main, nil)
			sec.Exp = sectionExps(owner, nodes)
			si := fl.AddSection(1, sec, b, 0)
			fl.Seal()
			out, extra := make([]vec.V3, len(query)), make([]float64, len(query))
			gotSt := sweepAll(fl, degree >= 0, query, 0.67, 0.01, out, extra)
			ords, deltas := fl.SectionDeltas(si, nil, nil)
			for j, ord := range ords {
				owner.Load[nodes[ord]] += deltas[j]
			}
			var wantSt tree.Stats
			for i, q := range query {
				var want vec.V3
				wantEx := 0.0
				if !leafCell {
					wantSt.MACTests++
				}
				if !leafCell && realMAC(oracle.COM(0), s.Domain.LongestSide(), q.Pos, 0.67) {
					wantSt.PC++
					wantEx = testExAdd
					want = w.cluster(q, oracle.COM(0), oracle.Mass[0], oracle.Exp[0], 0.01)
				} else {
					var r vec.V3
					for ch := int32(1); ch < oracle.Skip[0]; ch = oracle.Skip[ch] {
						r = r.Add(w.subtree(oracle, ch, q, 0.67, 0.01, &wantSt))
					}
					oracle.Load[0]++
					want = vec.V3{}.Add(r)
				}
				if !sameBits(out[i], want) || extra[i] != wantEx {
					t.Fatalf("degree %d leafCell=%v query %d: flat %v (extra %v) oracle %v (extra %v)", degree, leafCell, i, out[i], extra[i], want, wantEx)
				}
			}
			if gotSt != wantSt {
				t.Fatalf("degree %d leafCell=%v: stats %+v oracle %+v", degree, leafCell, gotSt, wantSt)
			}
			wl, gl := oracle.Load, owner.Load
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("degree %d leafCell=%v: load %d is %d, oracle %d", degree, leafCell, i, gl[i], wl[i])
				}
			}
		}
	}
}

// TestFlatPotentialAllDriver: the potential driver takes a nil extra as
// ForceAll does, and an accepted summary that was given no expansion is
// reported by name, not as a nil dereference.
func TestFlatPotentialAllDriver(t *testing.T) {
	s := dist.MustNamed("plummer", 500, 4)
	tr := tree.BuildKeyed(s.Particles, s.Domain, testLeafCap)
	tr.BuildExpansions(2)
	flatten := func(top *phys.Expansion) *Flat {
		main := &Main{}
		idx := main.AddTop(tr.COM(0), tr.Mass[0], s.Domain.LongestSide(), top)
		var own []int32
		for c := int32(1); c < tr.Skip[0]; c = tr.Skip[c] {
			main.AddBranch(tr.IsLeaf(c), tr.COM(c), tr.Mass[c], tr.Side[c], tr.Exp[c], 1)
			own = append(own, c)
		}
		main.CloseInternal(idx)
		fl := &Flat{}
		fl.Reset(main, tr)
		for b, c := range own {
			fl.SetOwn(int32(b), c)
		}
		fl.Seal()
		return fl
	}
	want, wantSt := tr.PotentialAll(s.Particles, 0.67)
	got := make([]float64, len(s.Particles))
	if gotSt := flatten(tr.Exp[0]).PotentialAll(s.Particles, 0.67, testExAdd, got, nil); gotSt != wantSt {
		t.Fatalf("stats %+v, recursion %+v", gotSt, wantSt)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("potential %d: %v, recursion %v", i, got[i], want[i])
		}
	}

	far := []dist.Particle{{ID: -1, Pos: s.Domain.Max.Add(s.Domain.Size().Scale(50))}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "withExp") {
			t.Fatalf("panic %q does not name withExp", msg)
		}
	}()
	flatten(nil).PotentialAll(far, 0.67, testExAdd, got, nil)
}
