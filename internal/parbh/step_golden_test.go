package parbh

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/recio"
	"repro/internal/wiregolden"
)

// TestStepGoldenP64 pins three steps of every scheme under every shipping
// strategy, in force and in degree-4 potential mode, plus the
// non-replicated construction, on 64 ranks: the clock, the interaction
// counts, the communication volume, the imbalance, every rank's machine
// Stats and every particle's result. The file is not regenerated for a
// host-side change: its function-shipping and non-replicated lines were
// recorded before the replicated top tree became one per process and the
// wire pools were deleted, its LET lines when the essential-set test
// learned the peer's branch cells, and its data-shipping lines when data
// shipping began evaluating fetched cells with function shipping's sweep
// and returning their Load — changes to the simulated algorithm, which
// moved those lines and nothing else. Every strategy is function
// shipping's physics: the test asserts each LET, data and data-naive
// line's interaction counts, branches and results against the
// function-shipping line of its scheme, mode and step. Particles contract
// towards the domain's centre between steps, so the migration and both
// balancers move some every step.
func TestStepGoldenP64(t *testing.T) {
	const p, n, steps = 64, 2000, 3
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		for _, ship := range []Shipping{FunctionShipping, LETShipping, DataShipping, DataShippingNaive} {
			for _, mode := range []Mode{ForceMode, PotentialMode} {
				variants = append(variants, variant{
					fmt.Sprintf("%v/%v/%v", scheme, ship, mode),
					Config{Scheme: scheme, Shipping: ship, Mode: mode, Degree: 4, Alpha: 0.67, Eps: 0.01},
				})
			}
		}
	}
	for _, scheme := range []Scheme{SPSA, SPDA} {
		for _, mode := range []Mode{ForceMode, PotentialMode} {
			variants = append(variants, variant{
				fmt.Sprintf("%v/nonreplicated/%v", scheme, mode),
				Config{Scheme: scheme, TreeBuild: NonReplicatedBuild, Mode: mode, Degree: 4, Alpha: 0.67, Eps: 0.01},
			})
		}
	}

	// What every other strategy must reproduce of function shipping, by
	// scheme, mode and step.
	type physics struct {
		mac, pc, pp int64
		branches    int
		results     uint32
	}
	funcLines := map[string]physics{}
	var out strings.Builder
	for _, v := range variants {
		// An irregular set for the dynamic partition; a uniform one for the
		// static clusters, or all but a few of the 512 are empty.
		set := dist.MustNamed("s_10g_a", n, 64)
		if v.cfg.Scheme != DPDA {
			set = dist.MustNamed("uniform", n, 64)
		}
		e, err := New(msg.NewMachine(p, msg.CM5()), set, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		centre := e.Domain().Center()
		cur := append([]dist.Particle(nil), set.Particles...)
		for step := 0; step < steps; step++ {
			res := e.Step()
			got := physics{res.Stats.MACTests, res.Stats.PC, res.Stats.PP, res.BranchNodes, resultsSum(res)}
			at := fmt.Sprintf("%v/%v step %d", v.cfg.Scheme, v.cfg.Mode, step)
			switch v.cfg.Shipping {
			case FunctionShipping:
				if v.cfg.TreeBuild != NonReplicatedBuild {
					funcLines[at] = got
				}
			default:
				if want := funcLines[at]; got != want {
					t.Errorf("%s: %v %+v, function shipping %+v", at, v.cfg.Shipping, got, want)
				}
			}
			fmt.Fprintf(&out, "%s step %d: sim %016x imbalance %016x mac %d pc %d pp %d words %d msgs %d branches %d procstats %08x results %08x\n",
				v.name, step, math.Float64bits(res.SimTime), math.Float64bits(res.Imbalance),
				res.Stats.MACTests, res.Stats.PC, res.Stats.PP, res.CommWords, res.CommMessages, res.BranchNodes,
				procStatsSum(res.ProcStats), resultsSum(res))
			for i := range cur {
				shrink := 1 - 0.004*float64(1+cur[i].ID%3)
				cur[i].Pos = centre.Add(cur[i].Pos.Sub(centre).Scale(shrink))
			}
			e.SetParticles(cur)
		}
	}
	wiregolden.File(t, "testdata/step_p64.golden", []byte(out.String()))
}

// procStatsSum is a CRC over every field of every rank's machine Stats.
func procStatsSum(rows []msg.Stats) uint32 {
	var b []byte
	for _, s := range rows {
		for _, f := range []float64{s.ComputeTime, s.CommTime, s.Flops} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Messages))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Words))
	}
	return recio.Checksum(b)
}

// resultsSum is a CRC over every particle's acceleration or potential.
func resultsSum(res *Result) uint32 {
	var b []byte
	for _, a := range res.Accels {
		for _, f := range []float64{a.X, a.Y, a.Z} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	for _, phi := range res.Potentials {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(phi))
	}
	return recio.Checksum(b)
}
