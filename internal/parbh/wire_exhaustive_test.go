package parbh

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// TestWireCodecExhaustive proves that every payload type an SPSA, SPDA,
// or DPDA step can put on the wire has a registered transport codec and
// round-trips losslessly. The strict machine panics on any Send of an
// unregistered type, and copy-on-send forces every local payload
// through encode/decode exactly as a remote send would — so a passing
// run certifies both exhaustiveness and codec fidelity for the whole
// protocol (branch exchange, tree build, shipping, load balance,
// migration), not just the types a hand-written list remembers.
func TestWireCodecExhaustive(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		steps int
	}{
		{"spsa/force/function", Config{
			Scheme: SPSA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, GridLog2: 2,
		}, 1},
		{"spsa/force/data", Config{
			Scheme: SPSA, Mode: ForceMode, Shipping: DataShipping, Alpha: 0.67, Eps: 0.01, GridLog2: 2,
		}, 1},
		{"spda/force/data", Config{
			Scheme: SPDA, Mode: ForceMode, Shipping: DataShipping, Alpha: 0.67, Eps: 0.01, GridLog2: 2,
		}, 1},
		{"spda/potential/nonreplicated", Config{
			Scheme: SPDA, Mode: PotentialMode, Shipping: DataShipping, Alpha: 0.67,
			Degree: 2, GridLog2: 2, TreeBuild: NonReplicatedBuild,
		}, 1},
		{"dpda/force/function", Config{
			Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01,
		}, 2},
		{"dpda/force/data", Config{
			Scheme: DPDA, Mode: ForceMode, Shipping: DataShipping, Alpha: 0.67, Eps: 0.01,
		}, 2},
		{"spsa/force/data-naive", Config{
			Scheme: SPSA, Mode: ForceMode, Shipping: DataShippingNaive, Alpha: 0.67, Eps: 0.01, GridLog2: 2,
		}, 1},
		{"spsa/force/let", Config{
			Scheme: SPSA, Mode: ForceMode, Shipping: LETShipping, Alpha: 0.67, Eps: 0.01, GridLog2: 2,
		}, 2},
		{"dpda/force/let", Config{
			Scheme: DPDA, Mode: ForceMode, Shipping: LETShipping, Alpha: 0.67, Eps: 0.01,
		}, 2},
		{"spda/potential/let", Config{
			Scheme: SPDA, Mode: PotentialMode, Shipping: LETShipping, Alpha: 0.67, Degree: 2, GridLog2: 2,
		}, 2},
	}
	const ranks = 4
	set := dist.MustNamed("g", 600, 7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runEngine(t, set, tc.cfg, tc.steps, false)
			got := runEngine(t, set, tc.cfg, tc.steps, true)
			for s := range want {
				if got[s].Stats != want[s].Stats {
					t.Errorf("step %d: strict-wire stats = %+v, want %+v", s, got[s].Stats, want[s].Stats)
				}
				if got[s].CommWords != want[s].CommWords {
					t.Errorf("step %d: strict-wire comm words = %d, want %d", s, got[s].CommWords, want[s].CommWords)
				}
				if got[s].CommMessages != want[s].CommMessages {
					t.Errorf("step %d: strict-wire comm messages = %d, want %d", s, got[s].CommMessages, want[s].CommMessages)
				}
				for i := range want[s].Accels {
					if got[s].Accels[i] != want[s].Accels[i] {
						t.Errorf("step %d: accel %d differs after codec round trip", s, i)
						break
					}
				}
				for i := range want[s].Potentials {
					if got[s].Potentials[i] != want[s].Potentials[i] {
						t.Errorf("step %d: potential %d differs after codec round trip", s, i)
						break
					}
				}
			}
		})
	}
}

// runEngine executes steps of one configuration, optionally on a
// strict-wire copy-on-send machine.
func runEngine(t *testing.T, set *dist.Set, cfg Config, steps int, strict bool) []*Result {
	t.Helper()
	const ranks = 4
	m := msg.NewMachine(ranks, msg.CM5())
	if strict {
		m.SetStrictWire(true)
		m.SetCopyOnSend(true)
	}
	e, err := New(m, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Result, steps)
	for i := range out {
		out[i] = e.Step()
	}
	return out
}
