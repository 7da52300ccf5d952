package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/transport"
)

// FaultsTable measures the supervised cluster runtime under seeded
// fault injection: for each chaos scenario a distributed DPDA job runs
// over an in-memory two-process machine whose conns carry the scenario's
// fault plans, the supervisor demolishes and rebuilds the machine on
// every fault, and the row reports retries-to-success plus the
// host-clock recovery cost against the fault-free run. The final
// column checks the headline invariant directly: the simulated metrics
// of the faulted run are bit-identical to the clean run's.
func FaultsTable(opt Options) (Table, error) {
	t := Table{
		ID:    "faults",
		Title: "Fault injection and supervised recovery (host clock)",
		Columns: []string{
			"fault", "retries", "generations", "wall", "overhead", "bit-identical",
		},
		Notes: []string{
			"recovery resumes by silent deterministic replay from the last reported step",
			"overhead is wall-clock recovery cost vs the fault-free run; simulated metrics are unchanged by design",
		},
	}
	set := dist.MustNamed("g", 800, 7)
	job := cluster.Job{
		Name:    "faults",
		Ranks:   8,
		Steps:   3,
		Profile: msg.CM5(),
		Config: parbh.Config{
			Scheme:   parbh.DPDA,
			Mode:     parbh.ForceMode,
			Shipping: parbh.DataShipping,
			Alpha:    0.67,
			Eps:      0.01,
		},
		Domain: set.Domain,
		Parts:  set.Particles,
	}
	scenarios := []struct {
		name string
		plan func(gen, proc int) transport.FaultPlan
	}{
		{"none", nil},
		{"partition", func(gen, proc int) transport.FaultPlan {
			if gen == 0 && proc == 1 {
				return transport.FaultPlan{Seed: 11, PartitionAfter: 40}
			}
			return transport.FaultPlan{}
		}},
		{"corrupt", func(gen, proc int) transport.FaultPlan {
			if gen == 0 && proc == 1 {
				return transport.FaultPlan{Seed: 3, CorruptProb: 0.05}
			}
			return transport.FaultPlan{}
		}},
		{"drop+stall", func(gen, proc int) transport.FaultPlan {
			if gen == 0 && proc == 0 {
				return transport.FaultPlan{Seed: 29, DropProb: 0.08}
			}
			return transport.FaultPlan{}
		}},
	}
	var clean *faultOutcome
	for _, sc := range scenarios {
		out, err := runFaultScenario(job, sc.plan)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", sc.name, err)
		}
		if sc.name == "none" {
			clean = out
		}
		identical := "yes"
		if out.last.SimTime != clean.last.SimTime ||
			out.last.Stats != clean.last.Stats ||
			out.last.CommWords != clean.last.CommWords ||
			out.last.CommMessages != clean.last.CommMessages {
			identical = "NO"
		}
		t.Rows = append(t.Rows, []string{
			sc.name,
			fmt.Sprint(out.retries),
			fmt.Sprint(out.gens),
			fmtDur(out.wall.Seconds()),
			fmtDur((out.wall - clean.wall).Seconds()),
			identical,
		})
	}
	return t, nil
}

type faultOutcome struct {
	last    *parbh.Result
	retries int
	gens    int
	wall    time.Duration
}

// runFaultScenario drives one supervised job over a mesh whose procs
// carry plan(gen, proc). plan may be nil for a fault-free run.
func runFaultScenario(job cluster.Job, plan func(gen, proc int) transport.FaultPlan) (*faultOutcome, error) {
	const procs = 2
	var (
		mu   sync.Mutex
		gens int
		wg   sync.WaitGroup
	)
	sup := cluster.NewSupervisor(func() (*cluster.Coordinator, error) {
		mu.Lock()
		gen := gens
		gens++
		mu.Unlock()
		var plans []transport.FaultPlan
		if plan != nil {
			plans = make([]transport.FaultPlan, procs)
			for i := range plans {
				plans[i] = plan(gen, i)
			}
		}
		nodes := transport.NewMesh(procs, plans)
		for p := 1; p < procs; p++ {
			wg.Add(1)
			go func(link transport.Link) {
				defer wg.Done()
				if err := cluster.Serve(link, nil); err != nil {
					link.Abort(err)
				} else {
					link.Close()
				}
			}(nodes[p])
		}
		return cluster.NewCoordinator(nodes[0])
	})
	sup.MaxRetries = 5
	sup.BackoffBase = time.Millisecond
	sup.BackoffMax = 10 * time.Millisecond
	sup.StepTimeout = 2 * time.Second
	retries := 0
	start := time.Now()
	last, err := sup.Run(context.Background(), job, func(int, *parbh.Result) bool { return true },
		func(cluster.RecoveryEvent) { retries++ })
	wall := time.Since(start)
	sup.Shutdown()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	mu.Lock()
	g := gens
	mu.Unlock()
	return &faultOutcome{last: last, retries: retries, gens: g, wall: wall}, nil
}
