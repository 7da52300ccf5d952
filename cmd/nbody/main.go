// Command nbody runs an astrophysical n-body simulation with one of the
// parallel Barnes–Hut formulations on the simulated message-passing
// machine and reports per-step timings, the phase breakdown, load
// balance, and communication statistics.
//
// Examples:
//
//	nbody -dist plummer -n 20000 -p 16 -scheme dpda -steps 5
//	nbody -dist s_10g_a -n 25130 -p 64 -scheme spda -grid 4 -machine cm5
//	nbody -dist g -n 50000 -p 64 -mode potential -degree 4 -alpha 0.67
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	barneshut "repro"
	"repro/internal/cluster"
	"repro/internal/parbh"
	"repro/internal/recio"
)

func main() {
	var (
		distName  = flag.String("dist", "plummer", "distribution: plummer, g, g2, s_1g_a, s_1g_b, s_10g_a, s_10g_b, uniform")
		n         = flag.Int("n", 10000, "number of particles")
		p         = flag.Int("p", 8, "simulated processors (power of two for spsa/spda)")
		scheme    = flag.String("scheme", "dpda", "parallel formulation: spsa, spda, dpda")
		mode      = flag.String("mode", "force", "force (monopoles) or potential (multipoles)")
		alpha     = flag.Float64("alpha", 0.67, "multipole acceptance parameter")
		degree    = flag.Int("degree", 4, "multipole degree (potential mode)")
		eps       = flag.Float64("eps", 0.05, "Plummer softening (force mode)")
		steps     = flag.Int("steps", 3, "number of time-steps")
		dt        = flag.Float64("dt", 0.01, "leapfrog time-step")
		grid      = flag.Int("grid", 3, "log2 of the cluster grid per dimension (spsa/spda)")
		machine   = flag.String("machine", "ncube2", "machine profile: ncube2, cm5, ideal")
		binSize   = flag.Int("bin", 100, "function-shipping bin size")
		shipping  = flag.String("shipping", "function", "communication strategy: function, data, data-naive, let")
		strategy  = flag.String("strategy", "", "alias for -shipping (takes precedence when set)")
		seed      = flag.Int64("seed", 42, "random seed")
		verbose   = flag.Bool("v", false, "print the phase breakdown each step")
		integr    = flag.String("integrator", "leapfrog", "time integrator: leapfrog, yoshida4, euler")
		csvPath   = flag.String("csv", "", "write per-step history CSV to this file")
		tracePath = flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this file")
		ckptPath  = flag.String("checkpoint", "", "write a resumable checkpoint here after the run")
		resume    = flag.String("resume", "", "resume from a checkpoint file (overrides -dist/-n)")
		trans     = flag.String("transport", "inproc", "inproc, or tcp to coordinate nbodyworker processes")
		tListen   = flag.String("transport-listen", "127.0.0.1:0", "coordinator listen address (tcp transport)")
		tWorkers  = flag.Int("transport-workers", 1, "worker processes to wait for (tcp transport)")
		tWait     = flag.Duration("transport-wait", 60*time.Second, "how long to wait for workers to join (tcp transport)")
		tRetries  = flag.Int("transport-retries", 3, "machine rebuilds after transport faults before the run fails (tcp transport)")
		tStep     = flag.Duration("transport-step-timeout", 2*time.Minute, "watchdog on one distributed step; 0 disables (tcp transport)")
	)
	flag.Parse()

	set, err := barneshut.NewNamed(*distName, *n, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := barneshut.Config{
		Processors: *p,
		Alpha:      *alpha,
		Degree:     *degree,
		Eps:        *eps,
		GridLog2:   *grid,
		BinSize:    *binSize,
		DT:         *dt,
		Integrator: *integr,
	}
	if cfg.Scheme, err = barneshut.ParseScheme(*scheme); err != nil {
		fatal(err)
	}
	if cfg.Mode, err = barneshut.ParseMode(*mode); err != nil {
		fatal(err)
	}
	if cfg.Profile, err = barneshut.ParseMachine(*machine); err != nil {
		fatal(err)
	}
	ship := *shipping
	if *strategy != "" {
		ship = *strategy
	}
	if cfg.Shipping, err = barneshut.ParseShipping(ship); err != nil {
		fatal(err)
	}

	switch strings.ToLower(*trans) {
	case "inproc", "":
	case "tcp":
		if *resume != "" || *ckptPath != "" || *csvPath != "" {
			fatal(fmt.Errorf("-resume/-checkpoint/-csv are not supported with -transport tcp"))
		}
		runTCP(set, cfg, *distName, *steps, *tListen, *tWorkers, *tWait, *tRetries, *tStep, *verbose, *tracePath)
		return
	default:
		fatal(fmt.Errorf("unknown transport %q", *trans))
	}

	var sim *barneshut.Simulation
	if *resume != "" {
		f, err := os.Open(*resume)
		if err == nil {
			sim, err = barneshut.ReadCheckpoint(f)
			f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nbody: resumed from %s at step %d (t=%.4g)\n", *resume, sim.Steps(), sim.Time())
	} else {
		sim, err = barneshut.NewSimulation(set, cfg)
		if err != nil {
			fatal(err)
		}
	}
	var tracer *barneshut.Tracer
	if *tracePath != "" {
		tracer = barneshut.NewTracer()
		sim.SetTracer(tracer)
	}
	effCfg := sim.Config()
	fmt.Printf("nbody: %s n=%d p=%d scheme=%v mode=%v machine=%s alpha=%g integrator=%s\n",
		*distName, len(sim.Bodies()), effCfg.Processors, effCfg.Scheme, effCfg.Mode,
		effCfg.Profile.Name, effCfg.Alpha, effCfg.Integrator)

	var history barneshut.History
	for step := 1; step <= *steps; step++ {
		wall := time.Now()
		var res *barneshut.StepResult
		if effCfg.Mode == barneshut.PotentialMode {
			res = sim.ComputeForces()
		} else {
			res = sim.Step()
		}
		history.Record(sim, res)
		fmt.Printf("step %2d: sim %.3fs  eff %.2f  speedup %.1f  imb %.2f  comm %.2f Mwords  F=%d  wall %.2fs\n",
			step, res.SimTime, res.Efficiency, res.Speedup, res.Imbalance,
			float64(res.CommWords)/1e6, res.Stats.Interactions(), time.Since(wall).Seconds())
		if *verbose {
			for _, name := range res.PhaseOrder {
				fmt.Printf("         %-36s %.4fs\n", name, res.Phases[name])
			}
		}
	}
	meanSim, meanEff, worstImb := history.Summary()
	fmt.Printf("summary: mean sim %.3fs  mean eff %.2f  worst imbalance %.2f\n",
		meanSim, meanEff, worstImb)

	if tracer != nil {
		writeTrace(tracer, *tracePath)
	}

	// Each output file is written atomically: a failed or interrupted
	// write leaves the old one.
	if *csvPath != "" {
		if err := recio.WriteFile(*csvPath, history.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Printf("history written to %s\n", *csvPath)
	}
	if *ckptPath != "" {
		if err := recio.WriteFile(*ckptPath, sim.WriteCheckpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *ckptPath)
	}
}

// runTCP drives the same force evaluation across real OS processes:
// this process hosts the coordinator ranks, each joined nbodyworker
// hosts a block of the rest. The run is supervised: a transport fault
// (worker crash, partition, stall) demolishes the machine generation,
// waits for workers to rejoin, and resumes the job from the last
// reported step by deterministic replay. The simulated clock and
// interaction statistics are bit-identical to the in-proc run of the
// same configuration — faults and recoveries included — and the GOLDEN
// line makes that directly comparable.
func runTCP(set *barneshut.ParticleSet, cfg barneshut.Config, distName string, steps int, listen string, workers int, wait time.Duration, retries int, stepTimeout time.Duration, verbose bool, tracePath string) {
	if workers < 1 {
		fatal(fmt.Errorf("-transport-workers must be at least 1"))
	}
	var tracer *barneshut.Tracer
	if tracePath != "" {
		tracer = barneshut.NewTracer()
	}
	sup := cluster.NewTCPSupervisor(listen, workers, wait, tracer)
	sup.MaxRetries = retries
	sup.StepTimeout = stepTimeout
	sup.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "nbody: "+format+"\n", args...)
	}
	job := cluster.Job{
		Name:    distName,
		Ranks:   cfg.Processors,
		Steps:   steps,
		Profile: cfg.Profile,
		Config:  cfg.Engine(),
		Domain:  set.Domain,
		Parts:   set.Particles,
	}
	fmt.Printf("nbody: %s n=%d p=%d scheme=%v mode=%v machine=%s over %d processes\n",
		distName, set.N(), cfg.Processors, cfg.Scheme, cfg.Mode, cfg.Profile.Name, workers+1)
	start := time.Now()
	last, err := sup.Run(context.Background(), job, func(step int, res *parbh.Result) bool {
		fmt.Printf("step %2d: sim %.3fs  eff %.2f  speedup %.1f  imb %.2f  comm %.2f Mwords  F=%d\n",
			step+1, res.SimTime, res.Efficiency, res.Speedup, res.Imbalance,
			float64(res.CommWords)/1e6, res.Stats.Interactions())
		if verbose {
			for _, name := range res.PhaseOrder {
				fmt.Printf("         %-36s %.4fs\n", name, res.Phases[name])
			}
		}
		return true
	}, nil)
	if err != nil {
		sup.Shutdown()
		fatal(err)
	}
	fmt.Printf("GOLDEN simtime=%.17g mac=%d pc=%d pp=%d words=%d msgs=%d\n",
		last.SimTime, last.Stats.MACTests, last.Stats.PC, last.Stats.PP,
		last.CommWords, last.CommMessages)
	if tm := sup.Metrics(); tm != nil {
		m := tm.Snapshot()
		fmt.Printf("transport: %d frames / %.2f MB sent, %d frames / %.2f MB received, %d dial(s), wall %.2fs\n",
			m.FramesSent, float64(m.BytesSent)/1e6, m.FramesRecv, float64(m.BytesRecv)/1e6,
			m.Dials, time.Since(start).Seconds())
	}
	if err := sup.Shutdown(); err != nil {
		fatal(err)
	}
	if tracer != nil {
		writeTrace(tracer, tracePath)
	}
}

// writeTrace exports the capture as Chrome trace-event JSON (open it at
// https://ui.perfetto.dev).
func writeTrace(tr *barneshut.Tracer, path string) {
	if err := recio.WriteFile(path, tr.WriteChrome); err != nil {
		fatal(err)
	}
	fmt.Printf("trace written to %s (%d events", path, tr.Len())
	if d := tr.Dropped(); d > 0 {
		fmt.Printf(", %d dropped at cap", d)
	}
	fmt.Printf(")\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbody:", err)
	os.Exit(1)
}
