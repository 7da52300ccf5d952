//go:build !purego

package tree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/vec"
)

// The AVX2 force terms (packet_amd64.s) against the Go bodies of mac and
// leaf, which every build without AVX2 runs: the same inputs through both
// must leave the same bits in every lane's sums, extra charge and counts,
// the same rejected lanes (whose lane list, lanesIn of the mask, is in
// ascending order on both) and the same Load charge. NaN results compare
// equal to any NaN: which payload an IEEE operation on two NaNs keeps
// depends on which register the compiler made its first operand.

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

// kernelCase is one call of mac and one of leaf on a packet.
type kernelCase struct {
	w                 Packet
	f                 frame
	alpha, eps, exAdd float64
	summary           bool
	node              Cols // one internal node: the MAC's cell
	leaf              Cols // the leaf's particle columns
}

// kernelVals is the number of float64 operands a kernelCase draws: alpha,
// eps, exAdd, the node's centre, side and mass, the lanes' positions,
// sums and extra charges, and 16 leaf particles' positions and masses.
const kernelVals = 3 + 5 + 3*lanes + 3*lanes + lanes + 4*16

// special are the operands that take the kernels' edge paths.
var special = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074, 0x1p-1022, 0x1p-301, 0x1p301, math.MaxFloat64}

// genKernelCase draws a case with the active lanes of mask and n leaf
// particles: mostly ordinary values, some special ones, IDs from a small
// range so lanes meet themselves, leaf particles on lane positions (at eps
// = 0 as well), and cells whose side sits on the MAC's boundary. raw
// overrides the first operands with arbitrary bit patterns.
func genKernelCase(rng *rand.Rand, mask uint8, n int, raw []byte) *kernelCase {
	v := make([]float64, kernelVals)
	for i := range v {
		switch r := rng.Intn(16); {
		case r == 0:
			v[i] = special[rng.Intn(len(special))]
		case r == 1:
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)
		default:
			v[i] = rng.NormFloat64()
		}
	}
	for i := 0; i+8 <= len(raw) && i/8 < len(v); i += 8 {
		v[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
	}
	next := func() float64 { x := v[0]; v = v[1:]; return x }
	k := &kernelCase{alpha: math.Abs(next()), eps: next(), exAdd: next(), summary: rng.Intn(2) == 0}
	if rng.Intn(3) == 0 {
		k.eps = 0
	}
	cx, cy, cz, side, mass := next(), next(), next(), math.Abs(next()), next()
	k.f.mask = mask
	for l := 0; l < lanes; l++ {
		k.w.id[l] = int32(rng.Intn(12))
		k.w.px[l], k.w.py[l], k.w.pz[l] = next(), next(), next()
	}
	for l := 0; l < lanes; l++ {
		k.f.x[l], k.f.y[l], k.f.z[l] = next(), next(), next()
		k.w.extra[l] = next()
		k.w.mac[l], k.w.pc[l], k.w.pp[l] = rng.Int63n(9), rng.Int63n(9), rng.Int63n(9)
	}
	if rng.Intn(4) == 0 {
		// A side on the boundary of the MAC for some lane: the prefilter's
		// sliver.
		l := rng.Intn(lanes)
		dx, dy, dz := cx-k.w.px[l], cy-k.w.py[l], cz-k.w.pz[l]
		side = k.alpha * math.Sqrt(dx*dx+dy*dy+dz*dz) * (1 + float64(rng.Intn(5)-2)*1e-13)
	}
	AppendNode(&k.node, KindInternal, vec.V3{X: cx, Y: cy, Z: cz}, mass, side, nil, -1, -1)
	for j := 0; j < 16; j++ {
		x, y, z, m := next(), next(), next(), next()
		if j >= n {
			continue
		}
		if rng.Intn(4) == 0 {
			l := rng.Intn(lanes)
			x, y, z = k.w.px[l], k.w.py[l], k.w.pz[l]
		}
		k.leaf.ID = append(k.leaf.ID, int32(rng.Intn(12)))
		k.leaf.PX = append(k.leaf.PX, x)
		k.leaf.PY = append(k.leaf.PY, y)
		k.leaf.PZ = append(k.leaf.PZ, z)
		k.leaf.PM = append(k.leaf.PM, m)
	}
	return k
}

// kernelOut is what one path left behind.
type kernelOut struct {
	w      Packet
	f      frame
	reject uint8
	ld     int64
}

// runKernels calls mac, then leaf, on a copy of k with the AVX2 terms on
// or off.
func runKernels(k *kernelCase, avx2 bool) kernelOut {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = avx2
	o := kernelOut{w: k.w, f: k.f}
	var s Sweep
	s.Begin(k.alpha, k.eps, k.exAdd, false)
	ld := []int64{0}
	o.w.ld = ld
	o.reject = s.mac(&o.w, &k.node, &o.f, 0, k.summary)
	s.leaf(&o.w, &k.leaf, &o.f, 0, int32(len(k.leaf.ID)))
	o.ld, o.w.ld = ld[0], nil
	return o
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkKernels fails t unless both paths agree on k.
func checkKernels(t *testing.T, k *kernelCase) {
	t.Helper()
	got, want := runKernels(k, true), runKernels(k, false)
	fail := func(what string, l int, g, w any) {
		t.Helper()
		t.Fatalf("mask %08b, %d leaf particles, alpha %v eps %v summary %v: %s lane %d: avx2 %v, generic %v",
			k.f.mask, len(k.leaf.ID), k.alpha, k.eps, k.summary, what, l, g, w)
	}
	if got.reject != want.reject {
		fail("rejected lanes", -1, got.reject, want.reject)
	}
	if got.ld != want.ld {
		fail("Load charge", -1, got.ld, want.ld)
	}
	for l := 0; l < lanes; l++ {
		for _, c := range []struct {
			what string
			g, w float64
		}{{"x", got.f.x[l], want.f.x[l]}, {"y", got.f.y[l], want.f.y[l]}, {"z", got.f.z[l], want.f.z[l]}, {"extra", got.w.extra[l], want.w.extra[l]}} {
			if !sameFloat(c.g, c.w) {
				fail(c.what, l, c.g, c.w)
			}
		}
		if got.w.Stats(l) != want.w.Stats(l) {
			fail("stats", l, got.w.Stats(l), want.w.Stats(l))
		}
	}
}

func TestPacketKernelMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 16; n++ {
		for mask := 0; mask < 1<<lanes; mask++ {
			for rep := 0; rep < 3; rep++ {
				checkKernels(t, genKernelCase(rng, uint8(mask), n, nil))
			}
		}
	}
	// Poisoned MAC operands send every active lane to the exact test.
	for _, alpha := range []float64{0.67, 0x1p-260, 0x1p260, math.NaN()} {
		for _, side := range []float64{1, 0x1p-310, 0x1p310, 0, math.Inf(1)} {
			k := genKernelCase(rng, 0xff, 8, nil)
			k.alpha, k.node.Side[0] = alpha, side
			checkKernels(t, k)
		}
	}
	// Whole sweeps: clustered particles, coincident ones at eps = 0 and
	// every leaf size up to 16.
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
	f.Add(int64(1), uint8(0xff), uint8(8), []byte(nil))
	f.Add(int64(2), uint8(0x5a), uint8(0), []byte(nil))
	nan := make([]byte, 8*kernelVals)
	for i := 0; i < kernelVals; i++ {
		binary.LittleEndian.PutUint64(nan[8*i:], math.Float64bits(math.NaN()))
	}
	f.Add(int64(3), uint8(0x81), uint8(16), nan)
	f.Fuzz(func(t *testing.T, seed int64, mask, n uint8, raw []byte) {
		checkKernels(t, genKernelCase(rand.New(rand.NewSource(seed)), mask, int(n%17), raw))
	})
}
