package fmm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// byID reindexes direct potentials by particle ID.
func byID(set *dist.Set, raw []float64) []float64 {
	out := make([]float64, set.N())
	for i, q := range set.Particles {
		out[q.ID] = raw[i]
	}
	return out
}

func TestFMMMatchesDirect(t *testing.T) {
	for _, name := range []string{"plummer", "g", "s_10g_b"} {
		set := dist.MustNamed(name, 2000, 1)
		got, stats := Potentials(set.Particles, set.Domain, Config{Degree: 6, Theta: 0.5})
		want := byID(set, direct.PotentialsParallel(set.Particles, 0))
		if e := phys.FractionalError(want, got); e > 2e-4 {
			t.Fatalf("%s: FMM error %v", name, e)
		}
		if stats.M2L == 0 || stats.P2P == 0 {
			t.Fatalf("%s: degenerate stats %+v", name, stats)
		}
	}
}

func TestFMMErrorDecaysWithDegree(t *testing.T) {
	set := dist.MustNamed("plummer", 1500, 2)
	want := byID(set, direct.PotentialsParallel(set.Particles, 0))
	prev := math.Inf(1)
	for _, deg := range []int{1, 2, 4, 6} {
		got, _ := Potentials(set.Particles, set.Domain, Config{Degree: deg, Theta: 0.5})
		err := phys.FractionalError(want, got)
		if err > prev*1.2 {
			t.Fatalf("degree %d error %v did not improve on %v", deg, err, prev)
		}
		prev = err
	}
	if prev > 1e-4 {
		t.Fatalf("degree-6 error %v", prev)
	}
}

func TestFMMErrorGrowsWithTheta(t *testing.T) {
	set := dist.MustNamed("g", 1500, 3)
	want := byID(set, direct.PotentialsParallel(set.Particles, 0))
	var prev float64
	for _, theta := range []float64{0.4, 0.6, 0.8} {
		got, _ := Potentials(set.Particles, set.Domain, Config{Degree: 4, Theta: theta})
		err := phys.FractionalError(want, got)
		if err < prev*0.8 {
			t.Fatalf("theta %v error %v fell from %v", theta, err, prev)
		}
		prev = err
	}
}

func TestFMMUsesFewerInteractionsThanBH(t *testing.T) {
	// The FMM's cluster–cluster interactions amortize far-field work:
	// for equal accuracy its total kernel invocations should undercut
	// Barnes–Hut's particle–cell count at moderate n.
	set := dist.MustNamed("plummer", 8000, 4)
	want := byID(set, direct.PotentialsParallel(set.Particles, 0))

	got, stats := Potentials(set.Particles, set.Domain, Config{Degree: 4, Theta: 0.55})
	fmmErr := phys.FractionalError(want, got)

	// A Barnes–Hut run tuned to a similar error level.
	tr := tree.Build(set.Particles, tree.Options{LeafCap: 8, Domain: set.Domain})
	tr.BuildExpansions(4)
	pots, bhStats := tr.PotentialAll(set.Particles, 0.6)
	bhErr := phys.FractionalError(want, byID(set, pots))

	if fmmErr > bhErr*10 {
		t.Fatalf("FMM error %v far above BH error %v", fmmErr, bhErr)
	}
	// Compare far-field interaction counts: M2L (each a k⁴ operation but
	// counted once per cell pair) vs BH's per-particle PC interactions.
	if stats.M2L >= bhStats.PC {
		t.Fatalf("FMM M2L count %d not below BH PC count %d", stats.M2L, bhStats.PC)
	}
}

func TestFMMLinearity(t *testing.T) {
	// Doubling every mass doubles every potential.
	set := dist.MustNamed("g", 800, 5)
	got1, _ := Potentials(set.Particles, set.Domain, Config{Degree: 4})
	heavy := &dist.Set{Domain: set.Domain, Particles: append([]dist.Particle(nil), set.Particles...)}
	for i := range heavy.Particles {
		heavy.Particles[i].Mass *= 2
	}
	got2, _ := Potentials(heavy.Particles, heavy.Domain, Config{Degree: 4})
	for i := range got1 {
		if math.Abs(got2[i]-2*got1[i]) > 1e-9*math.Abs(got1[i]) {
			t.Fatalf("particle %d: %v vs 2×%v", i, got2[i], got1[i])
		}
	}
}

func TestFMMEmptyAndTiny(t *testing.T) {
	got, _ := Potentials(nil, dist.MustNamed("uniform", 10, 6).Domain, Config{})
	if len(got) != 1 { // maxID defaults to 0
		t.Fatalf("empty FMM output length %d", len(got))
	}
	set := dist.MustNamed("uniform", 2, 7)
	got, _ = Potentials(set.Particles, set.Domain, Config{Degree: 3})
	want := byID(set, direct.Potentials(set.Particles, 0))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Abs(want[i]) {
			t.Fatalf("two-body potential %v vs %v", got[i], want[i])
		}
	}
}

func TestFMMStatsAccounting(t *testing.T) {
	set := dist.MustNamed("plummer", 3000, 8)
	ev := New(set.Particles, set.Domain, Config{Degree: 4, Theta: 0.6})
	_, stats := ev.Potentials()
	if stats.P2M != int64(set.N()) {
		t.Fatalf("P2M = %d, want %d", stats.P2M, set.N())
	}
	if stats.L2P != int64(set.N()) {
		t.Fatalf("L2P = %d, want %d", stats.L2P, set.N())
	}
	if stats.M2M == 0 || stats.L2L == 0 {
		t.Fatalf("translations missing: %+v", stats)
	}
}

func TestFMMScalesBetterThanQuadratic(t *testing.T) {
	// P2P+M2L counts should grow far slower than n² (near-linearly).
	count := func(n int) int64 {
		set := dist.MustNamed("uniform", n, 9)
		_, stats := Potentials(set.Particles, set.Domain, Config{Degree: 2, Theta: 0.6})
		return stats.P2P + stats.M2L
	}
	// A 16× particle range smooths over tree-depth quantization: the
	// octree only refines in whole levels, so small spans show lumpy
	// growth factors.
	c1 := count(1000)
	c2 := count(16000)
	ratio := float64(c2) / float64(c1)
	if ratio > 60 { // quadratic would be 256; near-linear is ~16-30
		t.Fatalf("work grew %vx for 16x particles", ratio)
	}
}

func TestFMMAccelsMatchDirect(t *testing.T) {
	set := dist.MustNamed("plummer", 1500, 10)
	acc, _ := Accels(set.Particles, set.Domain, Config{Degree: 6, Theta: 0.5})
	raw := direct.AccelsParallel(set.Particles, 0)
	want := make([]vec.V3, set.N())
	for i, q := range set.Particles {
		want[q.ID] = raw[i]
	}
	if e := phys.FractionalErrorV3(want, acc); e > 5e-4 {
		t.Fatalf("FMM force error %v", e)
	}
}

func TestFMMEvaluateBothOutputs(t *testing.T) {
	set := dist.MustNamed("g", 800, 11)
	ev := New(set.Particles, set.Domain, Config{Degree: 4, Theta: 0.5})
	pots, accs, stats := ev.Evaluate()
	if len(pots) != set.N() || len(accs) != set.N() {
		t.Fatalf("lengths %d/%d", len(pots), len(accs))
	}
	if stats.L2P != int64(set.N()) {
		t.Fatalf("L2P = %d", stats.L2P)
	}
	// The potentials from Evaluate match a fresh Potentials run.
	pots2, _ := Potentials(set.Particles, set.Domain, Config{Degree: 4, Theta: 0.5})
	for i := range pots {
		if pots[i] != pots2[i] {
			t.Fatalf("potential %d differs between Evaluate and Potentials", i)
		}
	}
}

// TestFMMGolden pins the serial FMM bit for bit: the FNV-64a hash of
// Evaluate's potentials and accelerations, and its full Stats.
func TestFMMGolden(t *testing.T) {
	set := dist.MustNamed("plummer", 2000, 1)
	pots, accs, stats := New(set.Particles, set.Domain, Config{Degree: 4, Theta: 0.55, LeafCap: 16}).Evaluate()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range pots {
		put(v)
	}
	for _, a := range accs {
		put(a.X)
		put(a.Y)
		put(a.Z)
	}
	if got := h.Sum64(); got != 0x2e4b2620f170ea4b {
		t.Errorf("hash %#x, want 0x2e4b2620f170ea4b", got)
	}
	if want := (Stats{M2L: 54341, P2P: 1941406, P2M: 2000, M2M: 487, L2L: 487, L2P: 2000}); stats != want {
		t.Errorf("stats %+v, want %+v", stats, want)
	}
}
