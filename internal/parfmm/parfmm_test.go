package parfmm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/fmm"
	"repro/internal/msg"
	"repro/internal/phys"
)

func runP(t *testing.T, set *dist.Set, p int, cfg Config) *Result {
	t.Helper()
	m := msg.NewMachine(p, msg.Ideal())
	res, err := Run(m, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// directByID computes exact potentials indexed by ID.
func directByID(set *dist.Set) []float64 {
	raw := direct.PotentialsParallel(set.Particles, 0)
	out := make([]float64, set.N())
	for i, q := range set.Particles {
		out[q.ID] = raw[i]
	}
	return out
}

func TestParallelFMMMatchesDirect(t *testing.T) {
	for _, name := range []string{"plummer", "g", "s_10g_b"} {
		set := dist.MustNamed(name, 2000, 1)
		res := runP(t, set, 8, Config{Degree: 6, Theta: 0.5})
		want := directByID(set)
		if e := phys.FractionalError(want, res.Potentials); e > 5e-4 {
			t.Fatalf("%s: parallel FMM error %v", name, e)
		}
	}
}

func TestParallelFMMMatchesSerialFMM(t *testing.T) {
	set := dist.MustNamed("plummer", 2500, 2)
	par := runP(t, set, 8, Config{Degree: 4, Theta: 0.55, LeafCap: 16})
	ser, _ := fmm.Potentials(set.Particles, set.Domain, fmm.Config{Degree: 4, Theta: 0.55, LeafCap: 16})
	// The trees differ slightly (zone-forced subdivision), so agreement
	// is at the approximation level, not bitwise.
	if e := phys.FractionalError(ser, par.Potentials); e > 1e-3 {
		t.Fatalf("parallel vs serial FMM difference %v", e)
	}
}

func TestParallelFMMSingleProcessor(t *testing.T) {
	set := dist.MustNamed("g", 1500, 3)
	res := runP(t, set, 1, Config{Degree: 5, Theta: 0.5})
	want := directByID(set)
	if e := phys.FractionalError(want, res.Potentials); e > 1e-3 {
		t.Fatalf("p=1 error %v", e)
	}
	if res.Stats.Shipped != 0 {
		t.Fatalf("p=1 shipped %d ghost leaves", res.Stats.Shipped)
	}
}

func TestParallelFMMIndependentOfP(t *testing.T) {
	set := dist.MustNamed("plummer", 2000, 4)
	ref := runP(t, set, 2, Config{Degree: 4, Theta: 0.5})
	for _, p := range []int{3, 6, 8} {
		res := runP(t, set, p, Config{Degree: 4, Theta: 0.5})
		if e := phys.FractionalError(ref.Potentials, res.Potentials); e > 2e-3 {
			t.Fatalf("p=%d diverges by %v", p, e)
		}
	}
}

func TestParallelFMMErrorDecaysWithDegree(t *testing.T) {
	set := dist.MustNamed("g", 1500, 5)
	want := directByID(set)
	prev := math.Inf(1)
	for _, deg := range []int{2, 4, 6} {
		res := runP(t, set, 6, Config{Degree: deg, Theta: 0.5})
		err := phys.FractionalError(want, res.Potentials)
		if err > prev*1.2 {
			t.Fatalf("degree %d error %v did not improve on %v", deg, err, prev)
		}
		prev = err
	}
}

func TestParallelFMMShipsOnlyNearField(t *testing.T) {
	// Ghost shipping exists but is a small fraction of the total work:
	// the far field was satisfied from replicated expansions.
	set := dist.MustNamed("plummer", 4000, 6)
	res := runP(t, set, 8, Config{Degree: 4, Theta: 0.55})
	if res.Stats.Shipped == 0 {
		t.Fatal("no ghost requests at all — suspicious for p=8")
	}
	if res.Stats.M2L == 0 || res.Stats.P2P == 0 {
		t.Fatalf("degenerate stats: %+v", res.Stats)
	}
	if res.CommWords <= 0 {
		t.Fatal("no communication recorded")
	}
}

func TestParallelFMMDeterministic(t *testing.T) {
	set := dist.MustNamed("g", 1200, 7)
	a := runP(t, set, 6, Config{Degree: 4, Theta: 0.5})
	b := runP(t, set, 6, Config{Degree: 4, Theta: 0.5})
	for i := range a.Potentials {
		if a.Potentials[i] != b.Potentials[i] {
			t.Fatalf("particle %d differs across runs", i)
		}
	}
	// Golden recorded with parfmm's own comparison sort, zone split and
	// branch extraction, before they moved to tree.SortByKey,
	// partition.EqualCountZones and tree.MaximalCells: the shared front
	// end must not move one bit of the result or one simulated metric.
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range a.Potentials {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != 0x65495551d4999e88 {
		t.Errorf("potentials hash %#x, want 0x65495551d4999e88", got)
	}
	if want := (Stats{M2L: 27792, P2P: 949036, Shipped: 9580}); a.Stats != want {
		t.Errorf("stats %+v, want %+v", a.Stats, want)
	}
	if a.CommWords != 326648 || math.Float64bits(a.SimTime) != 0x3f8620427be1b4ac {
		t.Errorf("words %d simtime %#x, want 326648 0x3f8620427be1b4ac", a.CommWords, math.Float64bits(a.SimTime))
	}
}

func TestParallelFMMEfficiencyReported(t *testing.T) {
	set := dist.MustNamed("g", 4000, 8)
	m := msg.NewMachine(8, msg.CM5())
	res, err := Run(m, set, Config{Degree: 4, Theta: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 || res.SeqTime <= 0 {
		t.Fatalf("times missing: %v / %v", res.SimTime, res.SeqTime)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1.5 {
		t.Fatalf("implausible efficiency %v", res.Efficiency)
	}
}

func TestParallelFMMEmptySet(t *testing.T) {
	set := &dist.Set{Domain: dist.MustNamed("uniform", 10, 9).Domain}
	m := msg.NewMachine(4, msg.Ideal())
	res, err := Run(m, set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Potentials) != 0 {
		t.Fatal("empty set produced potentials")
	}
}

// TestParallelFMMAtOneRankIsSerialFMM: on one rank the parallel FMM's
// only branch is the root, so its run is the serial FMM's — every
// potential bit-equal, and equal M2L and P2P counts.
func TestParallelFMMAtOneRankIsSerialFMM(t *testing.T) {
	cfg := Config{Degree: 4, Theta: 0.55, LeafCap: 16}
	for _, name := range []string{"plummer", "g", "s_10g_b", "uniform"} {
		set := dist.MustNamed(name, 3000, 1)
		par := runP(t, set, 1, cfg)
		ser, st := fmm.Potentials(set.Particles, set.Domain, fmm.Config{Degree: 4, Theta: 0.55, LeafCap: 16})
		if len(ser) != len(par.Potentials) {
			t.Fatalf("%s: %d serial potentials, %d parallel", name, len(ser), len(par.Potentials))
		}
		for i := range ser {
			if math.Float64bits(ser[i]) != math.Float64bits(par.Potentials[i]) {
				t.Fatalf("%s: particle %d: parallel %v, serial %v", name, i, par.Potentials[i], ser[i])
			}
		}
		if par.Stats.M2L != st.M2L || par.Stats.P2P != st.P2P {
			t.Errorf("%s: parallel M2L/P2P %d/%d, serial %d/%d", name, par.Stats.M2L, par.Stats.P2P, st.M2L, st.P2P)
		}
	}
}
