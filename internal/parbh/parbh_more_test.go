package parbh

import (
	"testing"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/phys"
)

func keyOf(level uint8, key uint64) keys.CellKey {
	return keys.CellKey{Level: level, Key: keys.Morton(key)}
}

func TestDataShippingDPDA(t *testing.T) {
	// Data shipping must compose with the dynamic decomposition too: on a
	// rank count that is not a power of two, its partitions stay function
	// shipping's.
	s := dist.MustNamed("g", 1200, 41)
	dataMatchesFunction(t, s, 6, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01}, 3)
}

func TestDataShippingPotentialMode(t *testing.T) {
	s := dist.MustNamed("plummer", 1000, 42)
	res := runStep(t, s, 4, Config{Scheme: SPSA, Mode: PotentialMode, Alpha: 0.67, Degree: 4, Shipping: DataShipping})
	want := direct.PotentialsParallel(s.Particles, 0)
	if e := phys.FractionalError(want, res.Potentials); e > 1e-3 {
		t.Fatalf("data-shipping potential error %v", e)
	}
}

func TestNonReplicatedBuildSPDA(t *testing.T) {
	s := dist.MustNamed("g", 1200, 43)
	a := runStep(t, s, 8, Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	b := runStep(t, s, 8, Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, TreeBuild: NonReplicatedBuild})
	if e := phys.FractionalErrorV3(a.Accels, b.Accels); e > 1e-9 {
		t.Fatalf("SPDA construction variants disagree by %v", e)
	}
}

func TestNonReplicatedBuildPotentialMode(t *testing.T) {
	// The non-replicated construction must propagate expansions through
	// its designated-owner combine path too.
	s := dist.MustNamed("g", 1000, 44)
	a := runStep(t, s, 8, Config{Scheme: SPSA, Mode: PotentialMode, Alpha: 0.67, Degree: 4})
	b := runStep(t, s, 8, Config{Scheme: SPSA, Mode: PotentialMode, Alpha: 0.67, Degree: 4, TreeBuild: NonReplicatedBuild})
	if e := phys.FractionalError(a.Potentials, b.Potentials); e > 1e-9 {
		t.Fatalf("potential construction variants disagree by %v", e)
	}
}

func TestDPDANonReplicatedFallsBackToBroadcast(t *testing.T) {
	// DPDA has variable-depth branch cells; the non-replicated level-wise
	// protocol applies to SPSA/SPDA, so DPDA must silently use the
	// broadcast-based construction and still be correct.
	s := dist.MustNamed("plummer", 1000, 45)
	res := runStep(t, s, 4, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, TreeBuild: NonReplicatedBuild})
	want := direct.AccelsParallel(s.Particles, 0.01)
	if e := phys.FractionalErrorV3(want, res.Accels); e > 0.02 {
		t.Fatalf("error %v", e)
	}
}

func TestSPDAHandlesDriftingParticles(t *testing.T) {
	// Particles drifting across cluster boundaries must be re-owned by
	// the migrate phase without corrupting results.
	s := dist.MustNamed("g", 1500, 46)
	m := msg.NewMachine(8, msg.Ideal())
	e, err := New(m, s, Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]dist.Particle(nil), s.Particles...)
	for step := 0; step < 3; step++ {
		res := e.Step()
		want := direct.AccelsParallel(cur, 0.02)
		if err := phys.FractionalErrorV3(want, res.Accels); err > 0.02 {
			t.Fatalf("step %d error %v", step, err)
		}
		// Strong drift: move every particle a noticeable fraction of a
		// cluster width.
		for i := range cur {
			cur[i].Pos = cur[i].Pos.Add(res.Accels[cur[i].ID].Scale(50))
			if !s.Domain.Contains(cur[i].Pos) {
				cur[i].Pos = cur[i].Pos.Max(s.Domain.Min).Min(s.Domain.Max)
			}
		}
		byID := make([]dist.Particle, len(cur))
		for _, q := range cur {
			byID[q.ID] = q
		}
		e.SetParticles(byID)
	}
}

func TestOneParticlePerProcessor(t *testing.T) {
	// Degenerate decomposition: as many processors as particles.
	s := dist.MustNamed("uniform", 8, 47)
	res := runStep(t, s, 8, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.5, Eps: 0.01})
	want := direct.AccelsParallel(s.Particles, 0.01)
	if e := phys.FractionalErrorV3(want, res.Accels); e > 0.05 {
		t.Fatalf("error %v", e)
	}
}

func TestLargeLeafCap(t *testing.T) {
	// LeafCap larger than n: the tree is a single leaf per branch.
	s := dist.MustNamed("uniform", 300, 48)
	res := runStep(t, s, 4, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, LeafCap: 1000})
	want := direct.AccelsParallel(s.Particles, 0.01)
	// Each zone is one giant leaf, but the decomposition still forces the
	// top cells into existence and the MAC may accept them, so the result
	// is BH-accurate rather than exact.
	if e := phys.FractionalErrorV3(want, res.Accels); e > 0.02 {
		t.Fatalf("error %v", e)
	}
	if res.Stats.PP == 0 {
		t.Fatal("no particle–particle work with giant leaves")
	}
}

func TestTinyBinWithDataShippingIgnored(t *testing.T) {
	// BinSize only affects function shipping; data shipping ignores it.
	s := dist.MustNamed("g", 600, 49)
	a := runStep(t, s, 4, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, Shipping: DataShipping, BinSize: 1})
	b := runStep(t, s, 4, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, Shipping: DataShipping, BinSize: 1000})
	for i := range a.Accels {
		if a.Accels[i] != b.Accels[i] {
			t.Fatalf("bin size affected data shipping at particle %d", i)
		}
	}
}

func TestSummaryWireFormat(t *testing.T) {
	s := BranchSummary{Key: 123, Owner: 4, Count: 10, Mass: 2.5}
	if s.Words() != 7 {
		t.Fatalf("monopole summary words = %d", s.Words())
	}
	s.Exp = make([]float64, phys.SeriesFloats(4))
	if s.Words() != 7+phys.SeriesFloats(4) {
		t.Fatalf("expansion summary words = %d", s.Words())
	}
}

func TestWireParticleRoundTrip(t *testing.T) {
	ps := dist.MustNamed("uniform", 50, 50).Particles
	back := fromWire(nil, toWire(ps))
	for i := range ps {
		if ps[i] != back[i] {
			t.Fatalf("particle %d corrupted in wire round trip", i)
		}
	}
}

func TestCellKeyRangeHelpers(t *testing.T) {
	lo, hi := keyOf(0, 0).Range()
	if lo != 0 || hi != 1<<63 {
		t.Fatalf("root range [%x, %x)", lo, hi)
	}
	// A level-1 child covers exactly 1/8 of the root.
	lo, hi = keyOf(1, 3).Range()
	if hi-lo != 1<<60 || lo != 3<<60 {
		t.Fatalf("child range [%x, %x)", lo, hi)
	}
}
