package parbh

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// The DPDA local-tree phase reuses a persistent builder per rank. The
// two-clock rule requires that reuse to be invisible in every simulated
// quantity: a multi-step run with retained builders must be bit-identical
// — accelerations, interaction Stats, communication volume, branch counts
// — to the same run with the builders discarded before every step (the
// from-scratch path). SPSA/SPDA never retain build state, so for them the
// comparison doubles as a determinism check. Bodies are advanced between
// steps so the retained sorted order and tree are genuinely stale each
// time.
//
// The test also reports how many DPDA rank-steps built cold. A rank's
// particle count changes whenever particles migrate or the zones move, so
// in practice every one does: DPDA keeps its builders for their buffers,
// not for the warm path.
func TestStepIncrementalBuildersMatchCold(t *testing.T) {
	for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
		t.Run(scheme.String(), func(t *testing.T) {
			makeEngine := func() (*Engine, []dist.Particle) {
				s := dist.MustNamed("g", 2400, 77)
				m := msg.NewMachine(8, msg.CM5())
				e, err := New(m, s, Config{Scheme: scheme, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 4})
				if err != nil {
					t.Fatal(err)
				}
				bodies := append([]dist.Particle(nil), s.Particles...)
				return e, bodies
			}

			warm, warmBodies := makeEngine()
			cold, coldBodies := makeEngine()
			rng := rand.New(rand.NewSource(99))
			const dt = 0.05 // large enough to force migration between ranks

			coldSteps, rankSteps := 0, 0
			for step := 0; step < 4; step++ {
				wr := warm.Step()
				for _, b := range warm.builders {
					if b != nil {
						rankSteps++
						if b.Last().Cold {
							coldSteps++
						}
					}
				}
				for i := range cold.builders {
					cold.builders[i] = nil // discard retained state: next build is from scratch
				}
				cr := cold.Step()

				if wr.Stats != cr.Stats {
					t.Fatalf("step %d: stats differ: warm %+v cold %+v", step, wr.Stats, cr.Stats)
				}
				if wr.CommWords != cr.CommWords || wr.CommMessages != cr.CommMessages {
					t.Fatalf("step %d: comm differs: %d/%d vs %d/%d",
						step, wr.CommWords, wr.CommMessages, cr.CommWords, cr.CommMessages)
				}
				if wr.BranchNodes != cr.BranchNodes {
					t.Fatalf("step %d: branch nodes differ: %d vs %d", step, wr.BranchNodes, cr.BranchNodes)
				}
				for i := range wr.Accels {
					if wr.Accels[i] != cr.Accels[i] {
						t.Fatalf("step %d: accel %d differs: %v vs %v", step, i, wr.Accels[i], cr.Accels[i])
					}
				}

				// Advance both systems identically (forward Euler on the
				// engine's own accelerations) plus a little shared noise so
				// consecutive steps exercise different trees and migrations.
				for i := range warmBodies {
					warmBodies[i].Vel = warmBodies[i].Vel.Add(wr.Accels[warmBodies[i].ID].Scale(dt))
					warmBodies[i].Pos = warmBodies[i].Pos.Add(warmBodies[i].Vel.Scale(dt))
					warmBodies[i].Pos.X += (rng.Float64() - 0.5) * 0.1
					coldBodies[i] = warmBodies[i]
				}
				warm.SetParticles(warmBodies)
				cold.SetParticles(coldBodies)
			}

			if scheme == DPDA {
				if rankSteps == 0 {
					t.Fatal("DPDA run never engaged the builders")
				}
				t.Logf("%d of %d rank-steps built cold", coldSteps, rankSteps)
			}
		})
	}
}
