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
// tree engine. LET is bit-identical to function shipping, and naive to
// cached data shipping, in accelerations and interaction statistics (the
// golden tests pin both pairs); across the pairs accelerations agree to
// 1e-9 (TestDataShippingMatchesFunctionShipping) and MAC-test counts
// differ. The table shows what each pays in words, messages, and
// balance on the third step (two steps settle the load balancing first).
// CI gates BENCH_let.json on exact equality and on LET words staying
// strictly below naive data shipping at p ≥ 4.
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
		"let = function and data = data-naive, bit for bit, in accelerations and Stats (golden-tested);",
		"across the two pairs accelerations agree to 1e-9, not bitwise, MAC-test counts differ, and",
		"under DPDA the partitions, hence PC/PP counts, differ from the second step on;",
		"data = cached data shipping (each node fetched once per step); data-naive = the paper's",
		"§4.2 per-visit model (every traversal miss is a fetch); let = one bulk essential-set",
		"exchange per peer pair, rebuilt and shipped whole every step;",
		"expected shape: let undercuts data-naive 60-220x at every p and ships 0.8-1.6x the",
		"words of cached data shipping in about half its messages (a section holds what any",
		"point of the peer's branch cells, clipped to its bounding box, could open; a fetch",
		"only what a particle did open); let's step is longer than function shipping's in",
		"every cell")
	return t, nil
}
