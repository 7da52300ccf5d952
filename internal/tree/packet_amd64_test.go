//go:build !purego

package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/vec"
)

// The fused AVX2 descent (packet_amd64.s) against the Go sweep loop with
// the Go bodies of mac and leaf, which every build without AVX2 runs: the
// same sweeps through both must leave the same bits in every lane's sum
// and extra charge, the same Stats and Deferred lists, the same Load
// charge on every node of every segment, and the same panic. NaN results
// compare equal to any NaN: which payload an IEEE operation on two NaNs
// keeps depends on which register the compiler made its first operand.

func TestAVX2Selected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	has := false
	for _, f := range flags {
		has = has || f == "avx2"
	}
	if has != hasAVX2() || useAVX2 != has {
		t.Fatalf("CPU flags say avx2=%v, hasAVX2()=%v, useAVX2=%v", has, hasAVX2(), useAVX2)
	}
}

// sweepCase is one packet's sweeps over a Sweep: Defer from root, Below
// over every grafted section and over Own's root, and ForceAll of the
// lanes as a particle set.
type sweepCase struct {
	sw                *Sweep
	root              int32
	alpha, eps, exAdd float64
	lanes             []dist.Particle // one to eight
	// defersCap, when positive, is the capacity the packet's defers start
	// each Defer and Below with: a walk that defers more fills them and
	// the fused descent hands the next branch to the Go loop mid-walk.
	defersCap int
}

// laneOut is what one sweep left in one lane; floats as fbits.
type laneOut struct {
	x, y, z, extra uint64
	stats          Stats
	deferred       []int32
}

// sweepOut is what one path left behind: per sweep, each lane's outcome
// or the panic; ForceAll's accelerations and extra charges; and the
// loads of every segment.
type sweepOut struct {
	sweeps [][]laneOut
	panics []string
	acc    [][4]uint64
	loads  [][]int64
}

// fbits is x's bit pattern, one pattern for every NaN.
func fbits(x float64) uint64 {
	if x != x {
		return 0x7ff8000000000001
	}
	return math.Float64bits(x)
}

// runSweeps runs k with the fused descent on or off.
func runSweeps(k *sweepCase, avx2 bool) sweepOut {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx2
	sw := k.sw
	sw.Loads = segLoads(sw)
	var o sweepOut
	var p Packet
	n := len(k.lanes)
	run := func(sweep func(), packet bool) {
		err := func() (err any) {
			defer func() { err = recover() }()
			for l, q := range k.lanes {
				p.SetLane(l, int32(q.ID), q.Pos)
			}
			if k.defersCap > 0 {
				p.defers = make([]deferral, 0, k.defersCap)
			}
			sweep()
			return nil
		}()
		var lanes []laneOut
		if err == nil && packet {
			for l := 0; l < n; l++ {
				s := p.Sum(l)
				lanes = append(lanes, laneOut{fbits(s.X), fbits(s.Y), fbits(s.Z), fbits(p.Extra(l)), p.Stats(l), p.Deferred(l, nil)})
			}
		}
		o.sweeps = append(o.sweeps, lanes)
		o.panics = append(o.panics, fmt.Sprint(err))
	}
	sw.Begin(k.alpha, k.eps, k.exAdd, false)
	run(func() { sw.Defer(&p, n, k.root) }, true)
	for g := range sw.Secs {
		run(func() { sw.Below(&p, n, SecSeg(g), 0) }, true)
	}
	if sw.Own != nil && len(sw.Own.Kind) > 0 {
		run(func() { sw.Below(&p, n, SegOwn, 0) }, true)
	}
	acc, extra := make([]vec.V3, n), make([]float64, n)
	run(func() { sw.ForceAll(k.lanes, k.root, k.alpha, k.eps, k.exAdd, acc, extra) }, false)
	for i := range acc {
		o.acc = append(o.acc, [4]uint64{fbits(acc[i].X), fbits(acc[i].Y), fbits(acc[i].Z), fbits(extra[i])})
	}
	o.loads = sw.Loads
	return o
}

// checkSweeps fails t unless both paths agree on k, and returns how many
// of k's sweeps ran to the end.
func checkSweeps(t *testing.T, k *sweepCase) int {
	t.Helper()
	got, want := runSweeps(k, true), runSweeps(k, false)
	where := fmt.Sprintf("%d lanes, %d main nodes, %d sections, alpha %v eps %v exAdd %v", len(k.lanes), len(k.sw.Kind), len(k.sw.Secs), k.alpha, k.eps, k.exAdd)
	for s := range want.sweeps {
		if got.panics[s] != want.panics[s] {
			t.Fatalf("%s: sweep %d: panic %q, generic %q", where, s, got.panics[s], want.panics[s])
		}
		for l := range want.sweeps[s] {
			if g, w := got.sweeps[s][l], want.sweeps[s][l]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: sweep %d lane %d: fused %+v, generic %+v", where, s, l, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.acc, want.acc) {
		t.Fatalf("%s: ForceAll: fused %x, generic %x", where, got.acc, want.acc)
	}
	for g := range want.loads {
		if !reflect.DeepEqual(got.loads[g], want.loads[g]) {
			t.Fatalf("%s: segment %d loads: fused %v, generic %v", where, g, got.loads[g], want.loads[g])
		}
	}
	ran := 0
	for _, p := range want.panics {
		if p == "<nil>" {
			ran++
		}
	}
	return ran
}

// special are the operands that take the descent's edge paths.
var special = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074, 0x1p-1022, 0x1p-301, 0x1p301, math.MaxFloat64}

// caseGen draws a sweepCase: mostly ordinary operands, some special ones
// (raw overrides the first ones with arbitrary bit patterns), IDs from a
// small range so lanes meet themselves, leaf particles on lane positions
// (at eps = 0 as well), cells whose side sits on some lane's MAC boundary
// (the prefilter's sliver), closed nodes every lane accepts, and every
// node kind in the segment where a locally essential tree has it.
type caseGen struct {
	rng *rand.Rand
	raw []byte
	k   *sweepCase
}

func (g *caseGen) val() float64 {
	if len(g.raw) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(g.raw))
		g.raw = g.raw[8:]
		return v
	}
	switch r := g.rng.Intn(16); {
	case r == 0:
		return special[g.rng.Intn(len(special))]
	case r == 1:
		return math.Ldexp(g.rng.NormFloat64(), g.rng.Intn(80)-40)
	}
	return g.rng.NormFloat64()
}

// Node kinds each segment of a generated sweep holds.
var (
	mainKinds    = []uint8{KindTop, KindTop, KindInternal, KindLeaf, KindClosed, KindBranch, KindBranch, KindBranchLeaf}
	ownKinds     = []uint8{KindInternal, KindInternal, KindLeaf}
	sectionKinds = []uint8{KindInternal, KindInternal, KindLeaf, KindClosed, KindStub}
)

// node appends a random subtree of kinds to c, depth levels down.
func (g *caseGen) node(c *Cols, kinds []uint8, depth int) {
	kind := kinds[g.rng.Intn(len(kinds))]
	if depth >= 5 && kind != KindBranch && kind != KindBranchLeaf {
		kind = KindLeaf
	}
	com := vec.V3{X: g.val(), Y: g.val(), Z: g.val()}
	mass, side := g.val(), math.Abs(g.val())
	k := g.k
	n2 := func(l int) float64 {
		dx, dy, dz := com.X-k.lanes[l].Pos.X, com.Y-k.lanes[l].Pos.Y, com.Z-k.lanes[l].Pos.Z
		return dx*dx + dy*dy + dz*dz
	}
	if g.rng.Intn(4) == 0 {
		side = k.alpha * math.Sqrt(n2(g.rng.Intn(len(k.lanes)))) * (1 + float64(g.rng.Intn(5)-2)*1e-13)
	}
	if kind == KindClosed && g.rng.Intn(8) != 0 {
		for l := range k.lanes {
			if !macAccepts(macS2(side), side, n2(l), macA2(k.alpha), k.alpha) {
				kind = KindInternal
			}
		}
	}
	switch kind {
	case KindLeaf:
		lo := int32(len(c.ID))
		m := g.rng.Intn(7)
		if g.rng.Intn(8) == 0 {
			m = 8 + g.rng.Intn(24)
		}
		for j := 0; j < m; j++ {
			pos, pm := vec.V3{X: g.val(), Y: g.val(), Z: g.val()}, g.val()
			if g.rng.Intn(4) == 0 {
				pos = k.lanes[g.rng.Intn(len(k.lanes))].Pos
			}
			c.ID = append(c.ID, int32(g.rng.Intn(12)))
			c.PX, c.PY, c.PZ, c.PM = append(c.PX, pos.X), append(c.PY, pos.Y), append(c.PZ, pos.Z), append(c.PM, pm)
		}
		AppendNode(c, kind, com, mass, side, nil, lo, int32(len(c.ID)))
	case KindBranch, KindBranchLeaf:
		AppendNode(c, kind, com, mass, side, nil, g.branch(), -1)
	default:
		idx := AppendNode(c, kind, com, mass, side, nil, -1, -1)
		for ch := g.rng.Intn(4); ch > 0; ch-- {
			g.node(c, kinds, depth+1)
		}
		c.Skip[idx] = int32(len(c.Kind))
	}
}

// branch adds a branch ordinal: the rank's own cell, with its subtree in
// Own, or another rank's, with one or two sections grafted under it.
func (g *caseGen) branch() int32 {
	sw := g.k.sw
	b := int32(len(sw.OwnRoot))
	if g.rng.Intn(3) == 0 {
		sw.OwnRoot = append(sw.OwnRoot, int32(len(sw.Own.Kind)))
		g.node(sw.Own, ownKinds, 2)
	} else {
		sw.OwnRoot = append(sw.OwnRoot, -1)
		for s := 1 + g.rng.Intn(2); s > 0; s-- {
			sec := new(Cols)
			sw.Grafts = append(sw.Grafts, int32(len(sw.Secs)))
			sw.Secs = append(sw.Secs, sec)
			g.node(sec, sectionKinds, 2)
		}
	}
	sw.GraftLo = append(sw.GraftLo, int32(len(sw.Grafts)))
	return b
}

// genSweepCase draws a case with n lanes (1 to 8).
func genSweepCase(rng *rand.Rand, n int, raw []byte) *sweepCase {
	g := &caseGen{rng: rng, raw: raw}
	k := &sweepCase{sw: &Sweep{Own: new(Cols), GraftLo: []int32{0}}}
	g.k = k
	k.alpha, k.eps, k.exAdd = math.Abs(g.val()), g.val(), g.val()
	if rng.Intn(3) == 0 {
		k.eps = 0
	}
	for l := 0; l < n; l++ {
		k.lanes = append(k.lanes, dist.Particle{ID: rng.Intn(12), Mass: 1, Pos: vec.V3{X: g.val(), Y: g.val(), Z: g.val()}})
	}
	g.node(&k.sw.Cols, mainKinds, 0)
	if rng.Intn(4) == 0 {
		k.defersCap = 1 + rng.Intn(3)
	}
	return k
}

// branchRow is a main region of other ranks' branch cells under one
// KindTop root every lane rejects: n cells, KindBranch and KindBranchLeaf
// alternating, each with a leaf section grafted under it, among own cells
// whose subtree is a leaf of the lanes' own particles every eighth. Each
// KindBranch's side puts the MAC boundary between the lanes, so some
// accept its summary and the others defer it.
func branchRow(n int) *sweepCase {
	k := &sweepCase{sw: &Sweep{Own: new(Cols), GraftLo: []int32{0}}, alpha: 0.67, eps: 0.01, exAdd: 2.5}
	for l := 0; l < lanes; l++ {
		k.lanes = append(k.lanes, dist.Particle{ID: l, Mass: 1, Pos: vec.V3{X: float64(l), Y: 0.5, Z: -0.25}})
	}
	sw := k.sw
	c := &sw.Cols
	root := AppendNode(c, KindTop, vec.V3{X: 3.5}, 8, 1e6, nil, -1, -1)
	for j := 0; j < n; j++ {
		b := int32(len(sw.OwnRoot))
		com := vec.V3{X: float64(j % 11), Y: 4 + float64(j%3), Z: 1}
		if j%8 == 7 {
			sw.OwnRoot = append(sw.OwnRoot, int32(len(sw.Own.Kind)))
			lo, hi := addParticles(sw.Own, k.lanes)
			AppendNode(sw.Own, KindLeaf, com, 8, 8, nil, lo, hi)
		} else {
			sw.OwnRoot = append(sw.OwnRoot, -1)
			sec := new(Cols)
			lo, hi := addParticles(sec, k.lanes[j%lanes:])
			AppendNode(sec, KindLeaf, com, 1, 1, nil, lo, hi)
			sw.Grafts = append(sw.Grafts, int32(len(sw.Secs)))
			sw.Secs = append(sw.Secs, sec)
		}
		sw.GraftLo = append(sw.GraftLo, int32(len(sw.Grafts)))
		kind := KindBranch
		if j%2 == 1 {
			kind = KindBranchLeaf
		}
		// Lanes nearer than lane j%8 reject the cell, the others accept it.
		dx, dy, dz := com.X-k.lanes[j%lanes].Pos.X, com.Y-k.lanes[j%lanes].Pos.Y, com.Z-k.lanes[j%lanes].Pos.Z
		side := k.alpha * math.Sqrt(dx*dx+dy*dy+dz*dz)
		AppendNode(c, kind, com, 2, side, nil, b, -1)
	}
	c.Skip[root] = int32(len(c.Kind))
	return k
}

// rootBranch is a main region of one branch cell of another rank's, which
// every lane defers: Defer begins each lane's sum at −0, and the deferral's
// explicit zero must leave +0 there.
func rootBranch(kind uint8) *sweepCase {
	k := branchRow(0)
	k.sw.Cols = Cols{}
	k.sw.OwnRoot = append(k.sw.OwnRoot, -1)
	sec := new(Cols)
	lo, hi := addParticles(sec, k.lanes)
	AppendNode(sec, KindLeaf, vec.V3{}, 1, 1, nil, lo, hi)
	k.sw.Grafts = append(k.sw.Grafts, 0)
	k.sw.Secs = append(k.sw.Secs, sec)
	k.sw.GraftLo = append(k.sw.GraftLo, 1)
	AppendNode(&k.sw.Cols, kind, vec.V3{X: 3.5}, 8, 1e6, nil, 0, -1)
	return k
}

// deepChain is a chain of depth internal nodes every lane rejects, around
// a leaf of the lanes' own particles: deeper than a packet's frame stack
// starts.
func deepChain(depth int) *sweepCase {
	k := &sweepCase{sw: &Sweep{Own: new(Cols)}, alpha: 0.67, eps: 0.01}
	for l := 0; l < lanes; l++ {
		k.lanes = append(k.lanes, dist.Particle{ID: l, Mass: 1, Pos: vec.V3{X: float64(l), Y: 0.5, Z: -0.25}})
	}
	c := &k.sw.Cols
	var open []int32
	for d := 0; d < depth; d++ {
		open = append(open, AppendNode(c, KindInternal, vec.V3{X: 3.5, Y: 0.25}, 2, 1e6, nil, -1, -1))
	}
	lo, hi := addParticles(c, k.lanes)
	AppendNode(c, KindLeaf, vec.V3{X: 3.5}, 8, 8, nil, lo, hi)
	for _, idx := range open {
		c.Skip[idx] = int32(len(c.Kind))
	}
	return k
}

// closeSections turns every internal node of sw's sections that all of
// query accepts into KindClosed, and the first other internal child of
// each section's root into KindStub.
func closeSections(sw *Sweep, query []dist.Particle, alpha float64) {
	for _, c := range sw.Secs {
		stub := false
		for i := range c.Kind {
			if c.Kind[i] != KindInternal {
				continue
			}
			closed := true
			for _, q := range query {
				dx, dy, dz := c.ComX[i]-q.Pos.X, c.ComY[i]-q.Pos.Y, c.ComZ[i]-q.Pos.Z
				closed = closed && macAccepts(macS2(c.Side[i]), c.Side[i], dx*dx+dy*dy+dz*dz, macA2(alpha), alpha)
			}
			switch {
			case closed:
				c.Kind[i] = KindClosed
			case i > 0 && !stub:
				c.Kind[i], stub = KindStub, true
			}
		}
	}
}

func TestPacketKernelMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(42))
	ran := 0
	for rep := 0; rep < 10000; rep++ {
		ran += checkSweeps(t, genSweepCase(rng, 1+rep%lanes, nil))
	}
	if ran < 10000 {
		t.Fatalf("only %d generated sweeps ran to the end", ran)
	}
	// Poisoned MAC operands send every active lane to the exact test.
	for _, alpha := range []float64{0.67, 0x1p-260, 0x1p260, math.NaN()} {
		for _, side := range []float64{1, 0x1p-310, 0x1p310, 0, math.Inf(1)} {
			k := genSweepCase(rng, lanes, nil)
			k.alpha = alpha
			for _, c := range append([]*Cols{&k.sw.Cols, k.sw.Own}, k.sw.Secs...) {
				for i := range c.Side {
					c.Side[i] = side
				}
			}
			checkSweeps(t, k)
		}
	}
	// Deeper than the frame stack a packet starts with.
	checkSweeps(t, deepChain(3*MaxDepth))

	// Other ranks' branch cells among own ones, deferred by lanes that
	// reject them, into defers with room for all of them and into defers
	// that fill mid-walk; and a root cell every lane defers, whose −0 the
	// explicit zero turns to +0.
	for _, defersCap := range []int{0, 1, 3, 64} {
		k := branchRow(40)
		k.defersCap = defersCap
		if ran := checkSweeps(t, k); ran != 3+len(k.sw.Secs) {
			t.Fatalf("branch row, defers of %d: %d of %d sweeps ran to the end", defersCap, ran, 3+len(k.sw.Secs))
		}
	}
	for _, kind := range []uint8{KindBranch, KindBranchLeaf} {
		k := rootBranch(kind)
		checkSweeps(t, k)
		var p Packet
		p.SetLane(0, 0, k.lanes[0].Pos)
		k.sw.Begin(k.alpha, k.eps, k.exAdd, false)
		k.sw.Loads = segLoads(k.sw)
		k.sw.Defer(&p, 1, 0)
		if s := p.Sum(0); math.Signbit(s.X) || math.Signbit(s.Y) || math.Signbit(s.Z) || len(p.Deferred(0, nil)) != 1 {
			t.Fatalf("root cell of kind %d: sum %v, deferred %v; want +0 and the cell", kind, s, p.Deferred(0, nil))
		}
	}

	// A locally essential tree of real trees: KindTop, own and remote
	// KindBranch, KindBranchLeaf, and sections with KindClosed and
	// KindStub nodes, packet by packet through Defer, Below and ForceAll.
	sw, main, own := handLET()
	closeSections(sw, own, 0.67)
	for k := 0; k < len(own); k += lanes {
		if ran := checkSweeps(t, &sweepCase{sw: sw, root: main, alpha: 0.67, eps: 0.01, exAdd: 2.5, lanes: own[k:min(k+lanes, len(own))]}); ran != 3+len(sw.Secs) {
			t.Fatalf("packet %d: %d of %d sweeps ran to the end", k/lanes, ran, 3+len(sw.Secs))
		}
	}

	// Whole tree sweeps: clustered particles, coincident ones at eps = 0
	// (MaxDepth leaves) and every leaf size up to 16.
	s := dist.MustNamed("g", 1500, 7)
	ps := append([]dist.Particle(nil), s.Particles...)
	for i := 0; i < 20; i++ {
		ps = append(ps, dist.Particle{ID: len(ps), Mass: 0.5, Pos: ps[3*i].Pos})
	}
	for _, leafCap := range []int{1, 5, 16} {
		for _, eps := range []float64{0.01, 0} {
			tr := BuildKeyed(ps, s.Domain, leafCap)
			run := func(avx2 bool) ([]float64, Stats, []int64) {
				defer func(old bool) { useAVX2 = old }(useAVX2)
				useAVX2 = avx2
				clear(tr.Load)
				acc, st := tr.AccelSweep(ps, 0.67, eps)
				var flat []float64
				for _, a := range acc {
					flat = append(flat, a.X, a.Y, a.Z)
				}
				return flat, st, append([]int64(nil), tr.Load...)
			}
			ga, gs, gl := run(true)
			wa, ws, wl := run(false)
			if gs != ws {
				t.Fatalf("leafCap %d eps %v: stats %+v, generic %+v", leafCap, eps, gs, ws)
			}
			for i := range wa {
				if math.Float64bits(ga[i]) != math.Float64bits(wa[i]) {
					t.Fatalf("leafCap %d eps %v: acceleration component %d: %v, generic %v", leafCap, eps, i, ga[i], wa[i])
				}
			}
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("leafCap %d eps %v: Load %d: %d, generic %d", leafCap, eps, i, gl[i], wl[i])
				}
			}
		}
	}
}

func FuzzPacketKernel(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	f.Add(int64(1), uint8(8), []byte(nil))
	f.Add(int64(2), uint8(3), []byte(nil))
	nan := make([]byte, 8*64)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(nan[8*i:], math.Float64bits(math.NaN()))
	}
	f.Add(int64(3), uint8(5), nan)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, raw []byte) {
		checkSweeps(t, genSweepCase(rand.New(rand.NewSource(seed)), 1+int(n%lanes), raw))
	})
}
