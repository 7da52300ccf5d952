package parbh

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
)

// BenchmarkShipReplay times the clock plane alone — the serial part of a
// function-shipping step — on the ledger's dpda_func_p16 configuration and
// on the same 20 000 particles over 64 and 256 ranks, where the ordered
// machine's scan for the next rank to resume grows with P: one replay of
// the protocol from the logs of a warm step.
func BenchmarkShipReplay(b *testing.B) {
	set := dist.MustNamed("g", 20000, 1994)
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			m := msg.NewMachine(p, msg.CM5())
			e, err := New(m, set, Config{Scheme: DPDA, Mode: ForceMode, Alpha: 0.67, Eps: 0.01, LeafCap: 8})
			if err != nil {
				b.Fatal(err)
			}
			e.Step()
			e.Step()
			logs := make([]shipLog, m.P)
			for i := range logs {
				logs[i] = e.ship[i].log
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := replayShip(m, e.cfg, logs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
