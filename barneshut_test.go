package barneshut

import (
	"math"
	"strings"
	"testing"

	"repro/internal/phys"
)

func TestSerialForcesMatchDirect(t *testing.T) {
	set := NewPlummer(1500, 1, V3{}, 1)
	bh, stats := SerialForces(set, 0.6, 0.01, 8)
	ex := DirectForces(set, 0.01)
	if e := phys.FractionalErrorV3(ex, bh); e > 0.01 {
		t.Fatalf("serial BH error %v", e)
	}
	if stats.Interactions() == 0 {
		t.Fatal("no interactions recorded")
	}
}

func TestSerialPotentialsMatchDirect(t *testing.T) {
	set, err := NewNamed("g", 1200, 2)
	if err != nil {
		t.Fatal(err)
	}
	bh, _ := SerialPotentials(set, 0.67, 5, 8)
	ex := DirectPotentials(set, 0)
	if e := phys.FractionalError(ex, bh); e > 2e-3 {
		t.Fatalf("serial potential error %v", e)
	}
}

func TestSimulationDefaults(t *testing.T) {
	set := NewPlummer(200, 1, V3{}, 3)
	sim, err := NewSimulation(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config()
	if cfg.Processors != 1 || cfg.DT != 0.01 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Profile.Name != "nCUBE2" {
		t.Fatalf("default profile %q", cfg.Profile.Name)
	}
}

func TestSimulationStepAdvances(t *testing.T) {
	set := NewPlummer(300, 1, V3{}, 4)
	sim, err := NewSimulation(set, Config{Processors: 4, Scheme: DPDA, Eps: 0.05, DT: 0.01, Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Bodies()
	res := sim.Step()
	if res == nil || res.Accels == nil {
		t.Fatal("no result")
	}
	after := sim.Bodies()
	moved := 0
	for i := range after {
		if after[i].Pos != before[i].Pos {
			moved++
		}
	}
	if moved < len(after)/2 {
		t.Fatalf("only %d particles moved", moved)
	}
	if sim.Steps() != 1 || math.Abs(sim.Time()-0.01) > 1e-15 {
		t.Fatalf("time accounting: steps=%d time=%v", sim.Steps(), sim.Time())
	}
}

func TestLeapfrogConservesEnergy(t *testing.T) {
	// A softened Plummer model integrated for 40 steps should conserve
	// total energy to a small drift — the standard symplectic-integrator
	// sanity check. The force error from the MAC bounds the drift.
	set := NewPlummer(400, 1, V3{}, 5)
	sim, err := NewSimulation(set, Config{
		Processors: 4, Scheme: DPDA, Alpha: 0.4, Eps: 0.1, DT: 0.005, Profile: IdealMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.TotalEnergyDirect()
	sim.Run(40)
	e1 := sim.TotalEnergyDirect()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.05 {
		t.Fatalf("energy drift %v (E %v -> %v)", drift, e0, e1)
	}
}

func TestMomentumConservation(t *testing.T) {
	set := NewPlummer(400, 1, V3{}, 6)
	sim, err := NewSimulation(set, Config{Processors: 4, Scheme: SPDA, Alpha: 0.5, Eps: 0.05, DT: 0.01, Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	mom := func() V3 {
		var p V3
		for _, b := range sim.Bodies() {
			p = p.Add(b.Vel.Scale(b.Mass))
		}
		return p
	}
	p0 := mom()
	sim.Run(10)
	p1 := mom()
	// BH forces are not exactly antisymmetric, so momentum drifts at the
	// force-error scale, not machine epsilon.
	if p1.Sub(p0).Norm() > 0.05 {
		t.Fatalf("momentum drift %v", p1.Sub(p0).Norm())
	}
}

func TestComputeForcesWithoutAdvance(t *testing.T) {
	set := NewPlummer(300, 1, V3{}, 7)
	sim, err := NewSimulation(set, Config{Processors: 2, Mode: PotentialMode, Alpha: 0.67, Degree: 3, Profile: IdealMachine()})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.ComputeForces()
	if res.Potentials == nil {
		t.Fatal("no potentials")
	}
	if sim.Steps() != 0 {
		t.Fatal("ComputeForces advanced the clock")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Step in PotentialMode did not panic")
		}
	}()
	sim.Step()
}

func TestKineticEnergyPositive(t *testing.T) {
	set := NewPlummer(200, 1, V3{}, 8)
	sim, _ := NewSimulation(set, Config{Profile: IdealMachine()})
	if ke := sim.KineticEnergy(); ke <= 0 {
		t.Fatalf("kinetic energy %v", ke)
	}
}

func TestGeneratorsExported(t *testing.T) {
	dom := Box{Max: V3{X: 100, Y: 100, Z: 100}}
	g := NewGaussians([]GaussianSpec{{Center: V3{X: 50, Y: 50, Z: 50}, Sigma: 3, N: 100}}, dom, 1)
	if g.N() != 100 {
		t.Fatalf("gaussian N = %d", g.N())
	}
	u := NewUniform(50, dom, 2)
	if u.N() != 50 {
		t.Fatalf("uniform N = %d", u.N())
	}
	if _, err := NewNamed("nope", 10, 0); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestProfiles(t *testing.T) {
	if NCube2().Name != "nCUBE2" || CM5().Name != "CM5" || IdealMachine().Name != "ideal" {
		t.Fatal("profile names wrong")
	}
	if NCube2().FlopRate >= CM5().FlopRate {
		t.Fatal("CM5 should be faster than nCUBE2")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	set := NewPlummer(50, 1, V3{}, 9)
	if _, err := NewSimulation(set, Config{Processors: -2}); err == nil {
		t.Fatal("negative processors accepted")
	}
	// 64 processors need ≥ 64 clusters.
	if _, err := NewSimulation(set, Config{Processors: 64, Scheme: SPSA, GridLog2: 1}); err == nil {
		t.Fatal("undersized grid accepted")
	}
}

// TestParseNames checks that each parser inverts its type's name in any
// case and names the accepted values when it refuses one.
func TestParseNames(t *testing.T) {
	for _, s := range []Scheme{SPSA, SPDA, DPDA} {
		if got, err := ParseScheme(strings.ToLower(s.String())); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", strings.ToLower(s.String()), got, err)
		}
	}
	for _, m := range []Mode{ForceMode, PotentialMode} {
		if got, err := ParseMode(strings.ToUpper(m.String())); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", strings.ToUpper(m.String()), got, err)
		}
	}
	for _, s := range []Shipping{FunctionShipping, DataShipping, DataShippingNaive, LETShipping} {
		if got, err := ParseShipping(s.String()); err != nil || got != s {
			t.Errorf("ParseShipping(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := ParseShipping(""); err != nil || got != FunctionShipping {
		t.Errorf(`ParseShipping("") = %v, %v`, got, err)
	}
	for _, p := range []MachineProfile{NCube2(), CM5(), IdealMachine()} {
		if got, err := ParseMachine(strings.ToLower(p.Name)); err != nil || got != p {
			t.Errorf("ParseMachine(%q) = %v, %v", strings.ToLower(p.Name), got.Name, err)
		}
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{second(ParseScheme("mpi")), `unknown scheme "mpi" (want spsa, spda, or dpda)`},
		{second(ParseMode("energy")), `unknown mode "energy" (want force or potential)`},
		{second(ParseShipping("tcp")), `unknown shipping "tcp" (want function, data, data-naive, or let)`},
		{second(ParseMachine("t3d")), `unknown machine "t3d" (want ncube2, cm5, or ideal)`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error %v, want %s", c.err, c.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }
