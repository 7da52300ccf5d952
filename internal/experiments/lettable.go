package experiments

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/parbh"
)

// LETTable compares the communication strategies head to head on every
// formulation: function shipping (the paper's paradigm), cached data
// shipping (the repo's original baseline), naive per-visit data shipping
// (the paper's §4.2 model of data shipping), and the locally-essential-
// tree engine. All four are bit-identical in accelerations, interaction
// statistics and per-node loads, hence in partitions (TestStepGoldenP64
// pins every strategy's line against function shipping's). The table
// shows what each pays in words, messages, and balance on the third step
// (two steps settle the load balancing first).
// TestLETTableGate (ci_test.go) holds it equal to BENCH_let.json and LET
// words strictly below naive data shipping at p ≥ 4.
func LETTable(opt Options) (Table, error) {
	opt = opt.withDefaults()
	set, err := Dataset("g_160535", opt)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID: "let",
		Title: fmt.Sprintf("Communication strategies: function vs data shipping vs locally essential trees (n=%d, simulated CM5)",
			set.N()),
		Columns: []string{"scheme", "p", "strategy", "words/step", "msgs", "imbalance", "sim time"},
	}
	schemes := []parbh.Scheme{parbh.SPSA, parbh.SPDA, parbh.DPDA}
	ships := []parbh.Shipping{
		parbh.FunctionShipping, parbh.DataShipping, parbh.DataShippingNaive, parbh.LETShipping,
	}
	for _, sc := range schemes {
		for _, p := range procList(opt, 4, 8, 16) {
			for _, sh := range ships {
				res, err := run(set, runCfg{
					scheme: sc, mode: parbh.ForceMode, p: p, alpha: 0.67, eps: 0.01,
					gridLog2: 3, profile: msg.CM5(), shipping: sh, warmup: 2,
				})
				if err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					sc.String(), fmt.Sprint(p), sh.String(),
					fmt.Sprint(res.CommWords), fmt.Sprint(res.CommMessages),
					f3(res.Imbalance), f2(res.SimTime),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"all four strategies are one physics, bit for bit: accelerations, Stats and per-node loads,",
		"hence partitions, agree (golden-tested); only words, messages and time differ;",
		"data = cached data shipping (each node fetched once per step, evaluated on the requester,",
		"loads returned as under let); data-naive = the paper's §4.2 per-visit model (every",
		"traversal miss is a fetch); let = one bulk essential-set exchange per peer pair, rebuilt",
		"and shipped whole every step;",
		"expected shape: let undercuts data-naive 60-200x at every p and ships 1.2-1.3x the",
		"words of cached data shipping in about half its messages (a section holds what any",
		"point of the peer's branch cells, clipped to its bounding box, could open; a fetch",
		"only what a particle did open); function shipping's step is the shortest in every cell")
	return t, nil
}
