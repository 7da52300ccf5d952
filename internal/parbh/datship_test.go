package parbh

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// TestDataShippingSharedCell runs every strategy's force phase over
// handWorld, whose octant 7 two ranks own and whose octant 0 is a leaf-cell
// branch: data shipping must fetch from every owner of a shared cell and
// leave what function shipping leaves, bit for bit — accelerations,
// potentials, Stats, extra loads and every node's Load.
func TestDataShippingSharedCell(t *testing.T) {
	set := dist.MustNamed("uniform", 900, 12)
	for _, m := range shipModes {
		run := func(ship Shipping) *shipWorld {
			cfg := Config{Scheme: SPSA, Shipping: ship, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, LeafCap: 4}
			e, states := handWorld(t, set, 4, cfg)
			w := newShipWorld(e.cfg, states, set.N())
			res := &Result{Accels: w.accels, Potentials: w.pots}
			if _, err := e.machine.RunErr(func(pr *msg.Proc) { e.forcePhase(pr, states[pr.ID()], res) }); err != nil {
				t.Fatal(err)
			}
			return w
		}
		want := run(FunctionShipping)
		for _, ship := range []Shipping{DataShipping, DataShippingNaive} {
			t.Run(m.name+"/"+ship.String(), func(t *testing.T) { compareWorlds(t, want, run(ship)) })
		}
	}
}
