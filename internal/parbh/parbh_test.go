package parbh

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/tree"
)

// runStep builds an engine on an ideal machine and runs one step.
func runStep(t *testing.T, set *dist.Set, p int, cfg Config) *Result {
	t.Helper()
	m := msg.NewMachine(p, msg.Ideal())
	e, err := New(m, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.Step()
}

func TestSingleProcessorDPDAMatchesSerialExactly(t *testing.T) {
	// With one processor the DPDA decomposition owns the whole tree, so
	// the parallel code path must reproduce the serial Barnes–Hut forces
	// bit for bit.
	s := dist.MustNamed("plummer", 1500, 1)
	res := runStep(t, s, 1, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	tr := tree.BuildKeyed(s.Particles, s.Domain, tree.DefaultLeafCap)
	for _, q := range s.Particles {
		want := tr.AccelAt(q.Pos, q.ID, 0.7, 0.01, nil)
		// The engine Morton-sorts particles, permuting leaf summation
		// order; only last-ulp differences are allowed.
		if res.Accels[q.ID].Sub(want).Norm() > 1e-13*(1+want.Norm()) {
			t.Fatalf("particle %d: parallel %v, serial %v", q.ID, res.Accels[q.ID], want)
		}
	}
}

func TestSingleProcessorDPDAPotentialMatchesSerialExactly(t *testing.T) {
	s := dist.MustNamed("g", 1000, 2)
	res := runStep(t, s, 1, Config{Scheme: DPDA, Mode: PotentialMode, Alpha: 0.67, Degree: 4})
	tr := tree.BuildKeyed(s.Particles, s.Domain, tree.DefaultLeafCap)
	tr.BuildExpansions(4)
	for _, q := range s.Particles {
		want := tr.PotentialAt(q.Pos, q.ID, 0.67, nil)
		if math.Abs(res.Potentials[q.ID]-want) > 1e-13*(1+math.Abs(want)) {
			t.Fatalf("particle %d: parallel %v, serial %v", q.ID, res.Potentials[q.ID], want)
		}
	}
}

// forceErrVsDirect measures the engine's force error against direct
// summation.
func forceErrVsDirect(t *testing.T, s *dist.Set, res *Result, eps float64) float64 {
	t.Helper()
	want := direct.AccelsParallel(s.Particles, eps)
	return phys.FractionalErrorV3(want, res.Accels)
}

func TestSchemesMatchDirectSummation(t *testing.T) {
	s := dist.MustNamed("plummer", 2500, 3)
	// Serial BH error as the yardstick.
	tr := tree.Build(s.Particles, tree.Options{Domain: s.Domain.Cube()})
	serial, _ := tr.AccelAll(s.Particles, 0.7, 0.01)
	want := direct.AccelsParallel(s.Particles, 0.01)
	serialErr := phys.FractionalErrorV3(want, serial)

	for _, tc := range []struct {
		scheme Scheme
		p      int
	}{
		{SPSA, 4}, {SPDA, 4}, {DPDA, 4}, {DPDA, 7}, {SPSA, 8}, {SPDA, 8}, {DPDA, 8},
	} {
		res := runStep(t, s, tc.p, Config{Scheme: tc.scheme, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
		err := forceErrVsDirect(t, s, res, 0.01)
		// The distributed tree forces subdivision to the branch level, so
		// its MAC decisions differ slightly from the serial tree's; both
		// must stay within the same approximation regime.
		if err > 3*serialErr+1e-12 {
			t.Fatalf("%v p=%d: error %v vs serial %v", tc.scheme, tc.p, err, serialErr)
		}
	}
}

func TestResultsIndependentOfProcessorCount(t *testing.T) {
	s := dist.MustNamed("s_10g_b", 2000, 4)
	ref := runStep(t, s, 2, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	for _, p := range []int{3, 5, 8} {
		res := runStep(t, s, p, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
		// Decomposition-induced differences are small: the same algorithm
		// with slightly different forced subdivisions.
		if e := phys.FractionalErrorV3(ref.Accels, res.Accels); e > 5e-3 {
			t.Fatalf("p=%d diverges from p=2 by %v", p, e)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := dist.MustNamed("g", 1200, 5)
	cfg := Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, BinSize: 16}
	a := runStep(t, s, 8, cfg)
	b := runStep(t, s, 8, cfg)
	for i := range a.Accels {
		if a.Accels[i] != b.Accels[i] {
			t.Fatalf("particle %d differs across identical runs", i)
		}
	}
}

func TestSmallBinsStressFlowControl(t *testing.T) {
	// BinSize 2 forces constant flushing and the one-outstanding-bin rule;
	// results must not change.
	s := dist.MustNamed("g", 800, 6)
	big := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, BinSize: 1000})
	small := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, BinSize: 2})
	for i := range big.Accels {
		if big.Accels[i] != small.Accels[i] {
			t.Fatalf("bin size changed result for particle %d", i)
		}
	}
}

// TestDataShippingMatchesFunctionShipping pins data shipping to function
// shipping bit for bit over three steps of every scheme in force and in
// potential mode: results and Stats each step, and before each step's
// load balance every rank's extra loads and every tree node's Load — so
// SPDA's and DPDA's partitions agree step after step.
func TestDataShippingMatchesFunctionShipping(t *testing.T) {
	s := dist.MustNamed("plummer", 1500, 7)
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		for _, mode := range []Mode{ForceMode, PotentialMode} {
			t.Run(fmt.Sprintf("%v/%v", scheme, mode), func(t *testing.T) {
				dataMatchesFunction(t, s, 8, Config{Scheme: scheme, Mode: mode, Degree: 4, Alpha: 0.7, Eps: 0.01}, 3)
			})
		}
	}
}

// dataMatchesFunction runs steps steps of cfg under function shipping and
// under data shipping and demands every step's results and Stats agree bit
// for bit, as do the force phase's extra loads and tree Loads at each step
// (from a fresh engine advanced to it).
func dataMatchesFunction(t *testing.T, set *dist.Set, p int, cfg Config, steps int) {
	t.Helper()
	data := cfg
	data.Shipping = DataShipping
	for step := 0; step < steps; step++ {
		fn, dt := newShipEngine(t, set, p, cfg), newShipEngine(t, set, p, data)
		for i := 0; i < step; i++ {
			compareResults(t, fn.Step(), dt.Step(), i)
		}
		compareWorlds(t, phases(t, fn, true), phases(t, dt, true))
	}
}

func TestDataShippingVolumeGrowsWithDegree(t *testing.T) {
	// Section 4.2.1: data-shipping volume grows as Θ(k²); function
	// shipping stays flat.
	s := dist.MustNamed("g", 1200, 8)
	vol := func(sh Shipping, deg int) int64 {
		res := runStep(t, s, 8, Config{
			Scheme: SPSA, Mode: PotentialMode, Alpha: 0.67, Degree: deg, Shipping: sh,
		})
		return res.CommWords
	}
	f2, f6 := vol(FunctionShipping, 2), vol(FunctionShipping, 6)
	d2, d6 := vol(DataShipping, 2), vol(DataShipping, 6)
	if float64(f6) > 1.2*float64(f2) {
		t.Fatalf("function-shipping volume grew with degree: %d -> %d", f2, f6)
	}
	growth := float64(d6) / float64(d2)
	if growth < 1.5 {
		t.Fatalf("data-shipping volume barely grew with degree: %d -> %d", d2, d6)
	}
}

func TestPotentialModeMatchesDirect(t *testing.T) {
	s := dist.MustNamed("plummer", 1200, 9)
	res := runStep(t, s, 8, Config{Scheme: DPDA, Mode: PotentialMode, Alpha: 0.67, Degree: 5})
	want := direct.PotentialsParallel(s.Particles, 0)
	if e := phys.FractionalError(want, res.Potentials); e > 2e-3 {
		t.Fatalf("degree-5 potential error %v", e)
	}
}

func TestPotentialErrorTrendsAtEngineLevel(t *testing.T) {
	// Table 6 / Table 7 trends must hold end-to-end through the parallel
	// machinery, not just in the serial tree.
	s := dist.MustNamed("g", 1500, 10)
	want := direct.PotentialsParallel(s.Particles, 0)
	errAt := func(deg int, alpha float64) float64 {
		res := runStep(t, s, 4, Config{Scheme: DPDA, Mode: PotentialMode, Alpha: alpha, Degree: deg})
		return phys.FractionalError(want, res.Potentials)
	}
	e3, e5 := errAt(3, 0.67), errAt(5, 0.67)
	if e5 > e3 {
		t.Fatalf("error did not drop with degree: %v -> %v", e3, e5)
	}
	ea, eb := errAt(4, 0.67), errAt(4, 1.0)
	if eb < ea {
		t.Fatalf("error did not grow with alpha: %v -> %v", ea, eb)
	}
}

func TestPhaseTimesReported(t *testing.T) {
	s := dist.MustNamed("g", 1000, 11)
	m := msg.NewMachine(8, msg.NCube2())
	e, err := New(m, s, Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Step()
	var total float64
	for _, name := range res.PhaseOrder {
		dt, ok := res.Phases[name]
		if !ok {
			t.Fatalf("phase %q missing", name)
		}
		if dt < 0 {
			t.Fatalf("phase %q negative: %v", name, dt)
		}
		total += dt
	}
	if res.Phases[PhaseForce] <= 0 {
		t.Fatal("force phase has zero duration")
	}
	// Force computation dominates.
	if res.Phases[PhaseForce] < 0.5*total {
		t.Fatalf("force phase %v not dominant of %v", res.Phases[PhaseForce], total)
	}
	if res.SimTime <= 0 || res.SeqTime <= 0 {
		t.Fatalf("missing times: sim %v seq %v", res.SimTime, res.SeqTime)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1.5 {
		t.Fatalf("implausible efficiency %v", res.Efficiency)
	}
}

func TestSPSALoadBalancePhaseIsZero(t *testing.T) {
	s := dist.MustNamed("g", 800, 12)
	m := msg.NewMachine(4, msg.NCube2())
	e, _ := New(m, s, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	res := e.Step()
	if res.Phases[PhaseLoadBal] != 0 {
		t.Fatalf("SPSA load-balancing phase = %v", res.Phases[PhaseLoadBal])
	}
}

func TestSPDAImprovesImbalanceOverSPSA(t *testing.T) {
	// The central claim of Section 5.1.1: on irregular distributions the
	// dynamic (Morton-run) assignment balances load better than the
	// static scatter. The two-Gaussian set spreads load over enough
	// clusters that runs can actually split it.
	s := dist.MustNamed("g2", 8000, 13)
	cfg := func(scheme Scheme) Config {
		return Config{Scheme: scheme, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, GridLog2: 4}
	}
	mSPSA := msg.NewMachine(8, msg.NCube2())
	eSPSA, _ := New(mSPSA, s, cfg(SPSA))
	mSPDA := msg.NewMachine(8, msg.NCube2())
	eSPDA, _ := New(mSPDA, s, cfg(SPDA))
	// Let SPDA rebalance twice (its first step uses the static layout).
	eSPSA.Step()
	eSPDA.Step()
	eSPSA.Step()
	eSPDA.Step()
	r1 := eSPSA.Step()
	r2 := eSPDA.Step()
	if r2.Imbalance >= r1.Imbalance {
		t.Fatalf("SPDA imbalance %v not better than SPSA %v", r2.Imbalance, r1.Imbalance)
	}
	// Morton-run locality also reduces communication volume.
	if r2.CommWords >= r1.CommWords {
		t.Fatalf("SPDA volume %d not below SPSA %d", r2.CommWords, r1.CommWords)
	}
}

func TestDPDABalancesAfterFirstStep(t *testing.T) {
	s := dist.MustNamed("s_1g_a", 6000, 14)
	m := msg.NewMachine(8, msg.NCube2())
	e, _ := New(m, s, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	first := e.Step()
	second := e.Step()
	if second.Imbalance > first.Imbalance*1.05 {
		t.Fatalf("DPDA imbalance grew: %v -> %v", first.Imbalance, second.Imbalance)
	}
	if second.Imbalance > 2.0 {
		t.Fatalf("DPDA imbalance after rebalance = %v", second.Imbalance)
	}
}

func TestMultiStepConsistency(t *testing.T) {
	// Several steps with drifting particles: results must stay correct as
	// particles migrate between processors.
	s := dist.MustNamed("plummer", 1200, 15)
	m := msg.NewMachine(4, msg.Ideal())
	e, err := New(m, s, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]dist.Particle(nil), s.Particles...)
	const dt = 0.05
	for step := 0; step < 3; step++ {
		res := e.Step()
		errDir := phys.FractionalErrorV3(direct.AccelsParallel(cur, 0.01), res.Accels)
		if errDir > 0.02 {
			t.Fatalf("step %d: error %v", step, errDir)
		}
		// Drift particles and feed the update back.
		for i := range cur {
			cur[i].Vel = cur[i].Vel.Add(res.Accels[cur[i].ID].Scale(dt))
			cur[i].Pos = cur[i].Pos.Add(cur[i].Vel.Scale(dt))
		}
		byID := make([]dist.Particle, len(cur))
		for _, q := range cur {
			byID[q.ID] = q
		}
		e.SetParticles(byID)
	}
}

func TestNonReplicatedBuildMatchesBroadcast(t *testing.T) {
	s := dist.MustNamed("g", 1200, 16)
	a := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	b := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, TreeBuild: NonReplicatedBuild})
	if e := phys.FractionalErrorV3(a.Accels, b.Accels); e > 1e-9 {
		t.Fatalf("construction variants disagree by %v", e)
	}
}

func TestSortedLookupMatchesHash(t *testing.T) {
	s := dist.MustNamed("g", 1000, 17)
	a := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	b := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, BranchLookup: SortedLookup})
	for i := range a.Accels {
		if a.Accels[i] != b.Accels[i] {
			t.Fatalf("lookup structures disagree at particle %d", i)
		}
	}
}

func TestHilbertOrderingWorks(t *testing.T) {
	s := dist.MustNamed("s_10g_a", 2000, 18)
	res := runStep(t, s, 8, Config{Scheme: SPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, Ordering: HilbertOrdering})
	if e := forceErrVsDirect(t, s, res, 0.01); e > 0.02 {
		t.Fatalf("Hilbert-ordered SPDA error %v", e)
	}
}

func TestEngineValidation(t *testing.T) {
	s := dist.MustNamed("g", 100, 19)
	m := msg.NewMachine(64, msg.Ideal())
	// 8 clusters < 64 processors must be rejected.
	if _, err := New(m, s, Config{Scheme: SPSA, GridLog2: 1}); err == nil {
		t.Fatal("engine accepted fewer clusters than processors")
	}
}

func TestSimulatedEfficiencyDecreasesWithP(t *testing.T) {
	// Fixed problem size: efficiency must fall as processors grow
	// (Amdahl + communication), as in every column of Table 5.
	s := dist.MustNamed("g", 4000, 20)
	eff := func(p int) float64 {
		m := msg.NewMachine(p, msg.CM5())
		e, err := New(m, s, Config{Scheme: DPDA, Mode: PotentialMode, Alpha: 0.67, Degree: 4})
		if err != nil {
			t.Fatal(err)
		}
		e.Step() // warm up the load balance
		return e.Step().Efficiency
	}
	e4, e16 := eff(4), eff(16)
	if e16 >= e4 {
		t.Fatalf("efficiency did not fall with p: p=4 %v, p=16 %v", e4, e16)
	}
	if e4 < 0.3 || e4 > 1.3 {
		t.Fatalf("implausible efficiency at p=4: %v", e4)
	}
}

func TestCommShareFallsWithDegree(t *testing.T) {
	// Section 4.2.2 / Table 6: under function shipping the communication
	// of the force phase does not depend on the multipole degree — what is
	// shipped is decided by the MAC — while the computation grows as Θ(k²),
	// so the share of the phase spent communicating (sending and waiting,
	// summed over ranks) falls as the degree grows. Efficiency itself is
	// not the witness: once the zones are balanced it sits near 0.9 and
	// follows the load balance each degree's zones happen to reach, not the
	// degree. So hold the decomposition fixed — the first step's
	// equal-count zones are the same for every degree — where the words
	// must agree to the last one and the share must fall strictly.
	s := dist.MustNamed("g", 12000, 21)
	var words []int64
	var share []float64
	for _, deg := range []int{2, 4, 6} {
		e := newShipEngine(t, s, 8, Config{Scheme: DPDA, Mode: PotentialMode, Alpha: 0.67, Degree: deg})
		w := phases(t, e, true)
		words = append(words, w.words)
		share = append(share, w.comm/(w.comm+w.comp))
	}
	if words[0] != words[1] || words[1] != words[2] {
		t.Errorf("force-phase words depend on the degree: %v", words)
	}
	if !(share[0] > share[1] && share[1] > share[2]) {
		t.Errorf("communication share did not fall with degree 2, 4, 6: %v", share)
	}
}

func TestBranchNodesReported(t *testing.T) {
	s := dist.MustNamed("g", 1000, 22)
	res := runStep(t, s, 4, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, GridLog2: 2})
	if res.BranchNodes == 0 || res.BranchNodes > 64 {
		t.Fatalf("BranchNodes = %d (grid has 64 clusters)", res.BranchNodes)
	}
	if res.CommWords <= 0 || res.CommMessages <= 0 {
		t.Fatalf("communication accounting missing: %d words, %d messages", res.CommWords, res.CommMessages)
	}
}

func TestStatsInteractionCountsMatchSerialScale(t *testing.T) {
	// Total interaction counts of the parallel run should be close to the
	// serial run (the work is the same algorithm).
	s := dist.MustNamed("plummer", 2000, 23)
	tr := tree.Build(s.Particles, tree.Options{Domain: s.Domain.Cube()})
	_, serial := tr.AccelAll(s.Particles, 0.7, 0.01)
	res := runStep(t, s, 8, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	ratio := float64(res.Stats.Interactions()) / float64(serial.Interactions())
	if ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("parallel did %v× the serial interactions", ratio)
	}
}

func TestEmptyProcessorsHarmless(t *testing.T) {
	// More processors than occupied clusters: some processors own nothing.
	s := dist.MustNamed("s_1g_a", 300, 24) // tiny, highly concentrated
	res := runStep(t, s, 8, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01, GridLog2: 2})
	if e := forceErrVsDirect(t, s, res, 0.01); e > 0.05 {
		t.Fatalf("error with empty processors: %v", e)
	}
}

func TestNewValidatesScheme(t *testing.T) {
	s := dist.MustNamed("g", 64, 25)
	m := msg.NewMachine(2, msg.Ideal())
	if _, err := New(m, s, Config{Scheme: Scheme(99)}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if SPSA.String() != "SPSA" || SPDA.String() != "SPDA" || DPDA.String() != "DPDA" {
		t.Fatal("scheme names wrong")
	}
	if ForceMode.String() != "force" || PotentialMode.String() != "potential" {
		t.Fatal("mode names wrong")
	}
	if FunctionShipping.String() != "function" || DataShipping.String() != "data" {
		t.Fatal("shipping names wrong")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme has empty name")
	}
}

func TestImbalanceFinite(t *testing.T) {
	s := dist.MustNamed("uniform", 500, 26)
	res := runStep(t, s, 4, Config{Scheme: SPSA, Mode: ForceMode, Alpha: 0.7, Eps: 0.01})
	if math.IsNaN(res.Imbalance) || res.Imbalance < 1 {
		t.Fatalf("imbalance = %v", res.Imbalance)
	}
}
