package barneshut

// Benchmarks. Two layers:
//
//   - Microbenchmarks of the computational kernels (tree construction,
//     traversals, multipole operators, Morton/Hilbert keys, collectives).
//
//   - One benchmark per table and figure of the paper's evaluation
//     (BenchmarkTable1 … BenchmarkTable7, BenchmarkFig9) plus the
//     Section 4 analytical experiments and the ablations. Each iteration
//     regenerates the experiment at a reduced scale; run cmd/bhbench for
//     the full-scale tables with the paper's reference numbers printed
//     alongside. The benchmark reports the wall time of regenerating the
//     experiment; the experiment itself reports simulated machine times.

import (
	"fmt"
	"testing"

	"repro/internal/bem"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fmm"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// benchOpts keeps experiment benchmarks laptop-sized.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 1.0 / 64, MaxProcs: 64, Seed: 1994}
}

func benchSet(b *testing.B, n int) *dist.Set {
	b.Helper()
	return dist.MustNamed("plummer", n, 1)
}

func BenchmarkTreeBuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		s := benchSet(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.Build(s.Particles, tree.Options{LeafCap: 8, Domain: s.Domain})
			}
		})
	}
}

// BenchmarkIncrementalStep measures one warm step (a persistent Builder,
// which re-sorts its retained permutation and builds into its retained
// columns, then the packet sweep under Tree.AccelSweep) against the cold
// path (BuildKeyed and the same sweep) on particles that do not move, so
// the two differ only in how they sort. CI's bench-compare also runs it on
// the base commit, so it keeps its name.
func BenchmarkIncrementalStep(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		s := dist.MustNamed("g", n, 1994)
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			bodies := append([]dist.Particle(nil), s.Particles...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.BuildKeyed(bodies, s.Domain, 8).AccelSweep(bodies, 0.67, 0.01)
			}
		})
		b.Run(fmt.Sprintf("incr/n=%d", n), func(b *testing.B) {
			bodies := append([]dist.Particle(nil), s.Particles...)
			bld := tree.NewBuilder(s.Domain, 8)
			step := func() {
				bld.Step(bodies).AccelSweep(bodies, 0.67, 0.01)
			}
			step() // cold first build
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkSerialForce times the force kernel every production traversal
// runs, the packet sweep (Tree.AccelSweep, multi-core), over all
// particles and reports interactions/s (PC + PP terms per second of
// wall). Its reference sub-benchmarks time the recursive traversal the
// sweep is bit-identical to.
func BenchmarkSerialForce(b *testing.B) {
	s := benchSet(b, 10000)
	tr := tree.Build(s.Particles, tree.Options{LeafCap: 8, Domain: s.Domain})
	kernels := []struct {
		name  string
		accel func([]dist.Particle, float64, float64) ([]vec.V3, tree.Stats)
	}{{"", tr.AccelSweep}, {"reference/", tr.AccelAll}}
	for _, k := range kernels {
		for _, alpha := range []float64{0.5, 0.67, 1.0} {
			b.Run(fmt.Sprintf("%salpha=%.2f", k.name, alpha), func(b *testing.B) {
				b.ReportAllocs()
				var st tree.Stats
				for i := 0; i < b.N; i++ {
					_, st = k.accel(s.Particles, alpha, 0.01)
				}
				b.ReportMetric(float64(st.PC+st.PP)*float64(b.N)/b.Elapsed().Seconds(), "interactions/s")
			})
		}
	}
}

func BenchmarkSerialPotential(b *testing.B) {
	s := benchSet(b, 10000)
	for _, deg := range []int{2, 4, 6} {
		tr := tree.Build(s.Particles, tree.Options{LeafCap: 8, Domain: s.Domain})
		tr.BuildExpansions(deg)
		b.Run(fmt.Sprintf("degree=%d", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.PotentialAt(s.Particles[i%s.N()].Pos, i%s.N(), 0.67, nil)
			}
		})
	}
}

func BenchmarkExpansionOps(b *testing.B) {
	pos := vec.V3{X: 0.1, Y: -0.2, Z: 0.05}
	for _, deg := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("P2M/degree=%d", deg), func(b *testing.B) {
			e := phys.NewExpansion(deg, vec.V3{})
			for i := 0; i < b.N; i++ {
				e.AddParticle(1.0, pos)
			}
		})
		b.Run(fmt.Sprintf("M2M/degree=%d", deg), func(b *testing.B) {
			e := phys.NewExpansion(deg, vec.V3{})
			e.AddParticle(1.0, pos)
			t := vec.V3{X: 0.5, Y: 0.25, Z: -0.25}
			for i := 0; i < b.N; i++ {
				e.TranslateTo(t)
			}
		})
		b.Run(fmt.Sprintf("Eval/degree=%d", deg), func(b *testing.B) {
			e := phys.NewExpansion(deg, vec.V3{})
			e.AddParticle(1.0, pos)
			at := vec.V3{X: 2, Y: 1, Z: -1}
			for i := 0; i < b.N; i++ {
				e.EvalPotential(at)
			}
		})
	}
}

func BenchmarkFMM(b *testing.B) {
	s := benchSet(b, 20000)
	for _, deg := range []int{2, 4} {
		b.Run(fmt.Sprintf("degree=%d", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fmm.Potentials(s.Particles, s.Domain, fmm.Config{Degree: deg, Theta: 0.6})
			}
		})
	}
}

func BenchmarkBEMMatVec(b *testing.B) {
	src := bem.SpherePanels(2000, 1, 1.0)
	strengths := make([]complex128, len(src))
	for _, s := range src {
		strengths[s.ID] = s.Strength
	}
	ev := bem.NewEvaluator(src, 1.0, bem.Config{})
	b.Run("treecode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev.MatVec(strengths)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bem.Direct(src, 1.0)
		}
	})
}

func BenchmarkMortonEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		keys.Encode3(uint32(i), uint32(i>>3), uint32(i>>7))
	}
}

func BenchmarkHilbertEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		keys.HilbertEncode3(uint32(i)&0x1fffff, uint32(i>>3)&0x1fffff, uint32(i>>7)&0x1fffff, 21)
	}
}

func BenchmarkCollectives(b *testing.B) {
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("AllGather/p=%d", p), func(b *testing.B) {
			m := msg.NewMachine(p, msg.Ideal())
			for i := 0; i < b.N; i++ {
				m.Run(func(pr *msg.Proc) { pr.AllGather(pr.ID(), 8) })
			}
		})
		b.Run(fmt.Sprintf("AllToAll/p=%d", p), func(b *testing.B) {
			m := msg.NewMachine(p, msg.Ideal())
			payloads := make([]any, p)
			words := make([]int, p)
			for i := range words {
				words[i] = 4
			}
			for i := 0; i < b.N; i++ {
				m.Run(func(pr *msg.Proc) { pr.AllToAll(payloads, words) })
			}
		})
	}
}

// BenchmarkEngineStep measures the real wall time of one parallel step
// per scheme (goroutine-parallel on the host), and of the performance
// ledger's dpda_func_p16 / dpda_let_p16 configuration (go run ./benchmark)
// under both of its shipping strategies, and of a step where the ranks are
// many and the particles few — 64 ranks, degree-4 potentials, where the
// replicated top tree and the request buffers are most of the memory.
func BenchmarkEngineStep(b *testing.B) {
	run := func(name string, s *dist.Set, m *msg.Machine, cfg parbh.Config) {
		b.Run(name, func(b *testing.B) {
			e, err := parbh.New(m, s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
	s := dist.MustNamed("g", 20000, 2)
	for _, scheme := range []parbh.Scheme{parbh.SPSA, parbh.SPDA, parbh.DPDA} {
		run(scheme.String(), s, msg.NewMachine(8, msg.Ideal()), parbh.Config{
			Scheme: scheme, Mode: parbh.ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 4,
		})
	}
	ledger := dist.MustNamed("g", 20000, 1994)
	for _, ship := range []parbh.Shipping{parbh.FunctionShipping, parbh.LETShipping} {
		run("DPDA/p16/cm5/"+ship.String(), ledger, msg.NewMachine(16, msg.CM5()), parbh.Config{
			Scheme: parbh.DPDA, Mode: parbh.ForceMode, Alpha: 0.67, Eps: 0.01, LeafCap: 8, Shipping: ship,
		})
	}
	run("DPDA/p64/cm5/potential-deg4", dist.MustNamed("g", 5000, 7), msg.NewMachine(64, msg.CM5()), parbh.Config{
		Scheme: parbh.DPDA, Mode: parbh.PotentialMode, Degree: 4, Alpha: 0.67,
	})
}

// benchTable runs one experiment per iteration and fails the benchmark on
// error; the experiment's own numbers are the interesting output (see
// cmd/bhbench).
func benchTable(b *testing.B, fn func(experiments.Options) (experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := fn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per table/figure of the paper.

func BenchmarkTable1(b *testing.B) { benchTable(b, experiments.Table1) }
func BenchmarkTable2(b *testing.B) { benchTable(b, experiments.Table2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, experiments.Table3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, experiments.Table4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, experiments.Table5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, experiments.Table6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, experiments.Table7) }
func BenchmarkFig9(b *testing.B)   { benchTable(b, experiments.Fig9) }

// Section 4 analytical experiments and the design-choice ablations.

func BenchmarkScaling(b *testing.B)           { benchTable(b, experiments.ScalingTable) }
func BenchmarkKruskalWeiss(b *testing.B)      { benchTable(b, experiments.KruskalWeissTable) }
func BenchmarkShippingAblation(b *testing.B)  { benchTable(b, experiments.ShippingTable) }
func BenchmarkBinSizeAblation(b *testing.B)   { benchTable(b, experiments.BinSizeTable) }
func BenchmarkLookupAblation(b *testing.B)    { benchTable(b, experiments.LookupTable) }
func BenchmarkOrderingAblation(b *testing.B)  { benchTable(b, experiments.OrderingTable) }
func BenchmarkTreeBuildAblation(b *testing.B) { benchTable(b, experiments.TreeBuildTable) }
func BenchmarkParallelFMMTable(b *testing.B)  { benchTable(b, experiments.FMMTable) }
