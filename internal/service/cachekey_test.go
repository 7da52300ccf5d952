package service

import (
	"reflect"
	"testing"

	barneshut "repro"
)

// Field order in JSON, explicit defaults, and enum casing are all
// spelling, not physics: they must map to the same cache key.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := JobSpec{Dist: "uniform", N: 96, Seed: 3, Processors: 2,
		Scheme: "spsa", Machine: "ideal", Steps: 5, Eps: 0.05}
	key := base.CacheKey()

	t.Run("defaults vs explicit", func(t *testing.T) {
		explicit := base
		explicit.Mode = "force"
		explicit.Alpha = 0.67
		explicit.DT = 0.01
		explicit.GridLog2 = 3
		explicit.BinSize = 100
		explicit.Integrator = "leapfrog"
		explicit.Shipping = "function"
		explicit.Transport = "inproc"
		if got := explicit.CacheKey(); got != key {
			t.Errorf("explicit defaults changed the key:\n base %s\n expl %s", key, got)
		}
	})

	t.Run("enum casing", func(t *testing.T) {
		shouty := base
		shouty.Scheme = "SPSA"
		shouty.Machine = "Ideal"
		shouty.Dist = "UNIFORM"
		if got := shouty.CacheKey(); got != key {
			t.Errorf("enum casing changed the key:\n base  %s\n upper %s", key, got)
		}
	})

	t.Run("host-only fields", func(t *testing.T) {
		labeled := base
		labeled.Name = "friday night run"
		labeled.Trace = true
		labeled.FramesKeyEvery = 2
		if got := labeled.CacheKey(); got != key {
			t.Errorf("host-only fields changed the key:\n base    %s\n labeled %s", key, got)
		}
	})

	t.Run("degree irrelevant in force mode", func(t *testing.T) {
		d := base
		d.Degree = 7 // monopole-only force mode never reads it
		if got := d.CacheKey(); got != key {
			t.Errorf("force-mode degree changed the key")
		}
	})

	t.Run("validate not mutating", func(t *testing.T) {
		fresh := JobSpec{Dist: "uniform", N: 96, Seed: 3, Processors: 2,
			Scheme: "spsa", Machine: "ideal", Steps: 5, Eps: 0.05}
		_ = fresh.CacheKey()
		if fresh.Mode != "" || fresh.Integrator != "" {
			t.Errorf("CacheKey mutated its receiver: %+v", fresh)
		}
	})
}

// Any physics-affecting change must change the key.
func TestCacheKeyDistinguishesPhysics(t *testing.T) {
	base := JobSpec{Dist: "uniform", N: 96, Seed: 3, Processors: 2,
		Scheme: "spsa", Machine: "ideal", Steps: 5, Eps: 0.05}
	key := base.CacheKey()

	mutations := map[string]func(*JobSpec){
		"seed":       func(s *JobSpec) { s.Seed = 4 },
		"n":          func(s *JobSpec) { s.N = 97 },
		"steps":      func(s *JobSpec) { s.Steps = 6 },
		"dist":       func(s *JobSpec) { s.Dist = "plummer" },
		"scheme":     func(s *JobSpec) { s.Scheme = "spda" },
		"machine":    func(s *JobSpec) { s.Machine = "cm5" },
		"processors": func(s *JobSpec) { s.Processors = 4 },
		"alpha":      func(s *JobSpec) { s.Alpha = 0.5 },
		"eps":        func(s *JobSpec) { s.Eps = 0.01 },
		"dt":         func(s *JobSpec) { s.DT = 0.02 },
		"integrator": func(s *JobSpec) { s.Integrator = "yoshida4" },
		"shipping":   func(s *JobSpec) { s.Shipping = "data" },
		"mode":       func(s *JobSpec) { s.Mode = "potential" },
		"transport":  func(s *JobSpec) { s.Transport = "tcp" },
	}
	seen := map[string]string{key: "base"}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		got := s.CacheKey()
		if got == key {
			t.Errorf("changing %s did not change the cache key", name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("mutations %s and %s collide on the same key", name, prev)
		}
		seen[got] = name
	}
}

// The default-filled spellings of the default simulation must agree with
// the zero spec.
func TestCacheKeyZeroSpec(t *testing.T) {
	zero := JobSpec{}
	filled := JobSpec{Dist: "plummer", N: 1000, Seed: 1, Processors: 1,
		Scheme: "spsa", Machine: "ncube2", Mode: "force", Steps: 10}
	if zero.CacheKey() != filled.CacheKey() {
		t.Error("zero spec and spelled-out defaults disagree on the cache key")
	}
}

// TestCacheKeyDefaultsMatchEngine runs a spec left to its defaults beside
// its twin with CacheKey's defaults spelled out (alpha 0.67, dt 0.01,
// grid_log2 3, bin_size 100, and degree 4 in potential mode) and requires
// bit-identical bodies and machine time. CacheKey keeps its own copy of
// the engine's defaults; were one to drift, the result cache would serve
// one simulation's result for another. Each default is also perturbed, to
// show the run would notice a drift in it.
func TestCacheKeyDefaultsMatchEngine(t *testing.T) {
	run := func(spec JobSpec) ([]barneshut.Particle, float64) {
		t.Helper()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		sim, err := spec.NewSimulation()
		if err != nil {
			t.Fatal(err)
		}
		machine := 0.0
		for i := 0; i < spec.Steps; i++ {
			if spec.potentialMode() {
				machine += sim.ComputeForces().SimTime
			} else {
				machine += sim.Step().SimTime
			}
		}
		return sim.Bodies(), machine
	}
	for _, mode := range []string{"force", "potential"} {
		t.Run(mode, func(t *testing.T) {
			zero := JobSpec{Dist: "plummer", N: 300, Seed: 5, Processors: 4,
				Scheme: "spda", Machine: "ncube2", Mode: mode, Steps: 3, Eps: 0.05}
			explicit := zero
			explicit.Alpha, explicit.DT, explicit.GridLog2, explicit.BinSize = 0.67, 0.01, 3, 100
			perturb := map[string]func(*JobSpec){
				"alpha":     func(s *JobSpec) { s.Alpha = 0.5 },
				"grid_log2": func(s *JobSpec) { s.GridLog2 = 2 },
				"bin_size":  func(s *JobSpec) { s.BinSize = 7 },
			}
			if mode == "potential" {
				explicit.Degree = 4
				perturb["degree"] = func(s *JobSpec) { s.Degree = 2 }
			} else {
				perturb["dt"] = func(s *JobSpec) { s.DT = 0.02 }
			}
			if zero.CacheKey() != explicit.CacheKey() {
				t.Fatal("the zero spec and its spelled-out defaults disagree on the cache key")
			}
			zb, zm := run(zero)
			eb, em := run(explicit)
			if zm != em {
				t.Fatalf("machine time %.17g with defaults left zero, %.17g spelled out", zm, em)
			}
			if !reflect.DeepEqual(zb, eb) {
				t.Fatal("bodies differ between the zero spec and its spelled-out defaults")
			}
			for name, p := range perturb {
				s := explicit
				p(&s)
				pb, pm := run(s)
				if pm == zm && reflect.DeepEqual(pb, zb) {
					t.Errorf("changing %s changes nothing the test compares", name)
				}
			}
		})
	}
}
