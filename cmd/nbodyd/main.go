// Command nbodyd is the simulation job daemon: an HTTP service that
// queues n-body simulation jobs, runs them on a bounded worker pool,
// streams progress as NDJSON, and keeps running jobs' state in a spool
// directory so they resume after a restart.
//
// Usage:
//
//	nbodyd -addr :8080 -workers 4 -queue 32 -spool /var/lib/nbodyd
//
// Endpoints (see the README for a walkthrough):
//
//	POST /api/v1/jobs             submit   GET /api/v1/jobs            list
//	GET  /api/v1/jobs/{id}        inspect  GET /api/v1/jobs/{id}/stream NDJSON
//	POST /api/v1/jobs/{id}/cancel cancel   GET /api/v1/jobs/{id}/result result
//	GET  /api/v1/jobs/{id}/trace  trace    GET /metrics                metrics
//	GET  /api/v1/jobs/{id}/frames replay   GET /healthz                liveness
//
// With -debug-addr set, a second private listener serves Go's pprof
// handlers under /debug/pprof/; they are never mounted on the public
// API listener.
//
// With -gateway set, the daemon also joins an nbodygw fleet as a shard:
// it dials the gateway's control port, registers under -shard-name
// (default: hostname), and accepts up to -shard-capacity leased jobs
// (default: the worker count) alongside its own HTTP submissions. The
// agent reconnects with backoff if the gateway restarts.
//
// On SIGINT/SIGTERM the daemon stops accepting work, leaves every
// running job's resume point in the spool, and exits; a daemon started
// later on the same spool resumes the interrupted jobs from there.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		debugAddr = flag.String("debug-addr", "", "private listen address for /debug/pprof (empty disables; keep it off public interfaces)")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON records instead of text")
		workers   = flag.Int("workers", 2, "worker pool size")
		queue     = flag.Int("queue", 16, "queued-job bound beyond running jobs (beyond it: 429)")
		spool     = flag.String("spool", "", "spool directory for resume across restarts (empty disables)")
		frKey     = flag.Int("frames-key-every", 16, "keyframe cadence of per-job frame chains, each job's resume point (needs -spool; negative is refused)")
		frBytes   = flag.Int64("frames-max-bytes", 64<<20, "per-job frame chain byte budget before compaction thins old deltas (0 = the 64 MiB default; negative = unbounded, no compaction)")
		drain     = flag.Duration("drain", 30*time.Second, "max time to wait for workers on shutdown")
		cListen   = flag.String("cluster-listen", "127.0.0.1:0", "cluster coordinator listen address (with -cluster-workers)")
		cWorkers  = flag.Int("cluster-workers", 0, "nbodyworker processes to wait for; 0 disables the tcp transport")
		cWait     = flag.Duration("cluster-wait", 60*time.Second, "how long to wait for cluster workers to join")
		cStep     = flag.Duration("cluster-step-timeout", 2*time.Minute, "watchdog on one distributed step (0 disables)")
		jRetries  = flag.Int("job-retries", 3, "in-place recoveries of a cluster job from transport faults before it fails (0 = none)")
		jBackoff  = flag.Duration("retry-backoff", time.Second, "wait before a cluster job's first recovery, doubling per retry up to 30s")
		gateway   = flag.String("gateway", "", "nbodygw control address to register with as a fleet shard (empty disables)")
		shardName = flag.String("shard-name", "", "stable shard identity on the gateway hash ring (default: the hostname)")
		shardCap  = flag.Int("shard-capacity", 0, "concurrent gateway leases to advertise (default: worker pool size)")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// The service, the cluster supervisor and the fabric agent speak
	// printf; route their lines through the structured logger so every
	// surface ends up in one stream.
	logf := func(component string) func(format string, args ...any) {
		return func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...), "component", component)
		}
	}
	opt := service.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		SpoolDir:       *spool,
		FramesKeyEvery: *frKey,
		FramesMaxBytes: *frBytes,
		Logf:           logf("service"),
	}
	var sup *cluster.Supervisor
	if *cWorkers > 0 {
		// The assembler builds one machine generation; after a fault the
		// supervisor demolishes it and calls the assembler again, which
		// must re-listen on the same resolved address so rejoining
		// workers find it. Port 0 is pinned after the first listen.
		listenAddr := *cListen
		sup = cluster.NewSupervisor(func() (*cluster.Coordinator, error) {
			node, err := transport.NewCoordinator(transport.Config{ListenAddr: listenAddr}, *cWorkers+1)
			if err != nil {
				return nil, err
			}
			listenAddr = node.Addr()
			logger.Info("cluster coordinator listening",
				"component", "cluster", "addr", node.Addr(), "workers", *cWorkers)
			if err := node.WaitWorkers(*cWait); err != nil {
				node.Abort(err)
				return nil, err
			}
			logger.Info("cluster assembled", "component", "cluster", "procs", node.NumProcs())
			return cluster.NewCoordinator(node)
		})
		sup.Logf = logf("cluster")
		sup.StepTimeout = *cStep
		sup.MaxRetries = *jRetries
		sup.BackoffBase, sup.BackoffMax = *jBackoff, 30*time.Second
		// The first generation comes up before the daemon serves: a
		// misconfigured cluster should fail loudly at startup, not on the
		// first job.
		if err := sup.Ensure(); err != nil {
			fatal("cluster assembly failed", "component", "cluster", "err", err)
		}
		opt.Cluster = sup
	}

	svc, err := service.New(opt)
	if err != nil {
		fatal("service init failed", "err", err)
	}
	if sup != nil {
		// A getter, not a snapshot: each rebuilt generation brings fresh
		// transport counters.
		svc.Metrics().SetTransportFunc(sup.Metrics)
	}
	svc.Start()

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue, "spool", *spool)

	// With -gateway set, the daemon doubles as a fleet shard: a fabric
	// agent registers the service with the gateway and runs leased
	// assignments through the same local queue HTTP clients use.
	var agentStop chan struct{}
	var agentDone chan struct{}
	if *gateway != "" {
		name := *shardName
		if name == "" {
			if host, err := os.Hostname(); err == nil {
				name = host
			} else {
				name = "shard"
			}
		}
		capacity := *shardCap
		if capacity <= 0 {
			capacity = *workers
		}
		// Every result waits in the agent's outbox until the gateway acks
		// it: in the spool (next to the frame chains) when there is one,
		// else in memory, surviving a gateway outage but not a daemon
		// restart.
		parkDir := ""
		if *spool != "" {
			parkDir = service.ParkedDir(*spool)
		}
		agent := &fabric.Agent{
			Svc:      svc,
			Gateway:  *gateway,
			Name:     name,
			HTTPAddr: *addr,
			Capacity: capacity,
			ParkDir:  parkDir,
			Logf:     logf("fabric"),
		}
		agentStop = make(chan struct{})
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			agent.Run(agentStop)
		}()
		logger.Info("fabric agent started", "component", "fabric",
			"gateway", *gateway, "shard", name, "capacity", capacity)
	}

	var dbgSrv *http.Server
	if *debugAddr != "" {
		// pprof lives on its own listener, never the public API mux: the
		// profile endpoints expose memory contents and can stall the
		// process, so they stay on a private (loopback/VPN) address.
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr, "path", "/debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "max_drain", drain.String())
	case err := <-errc:
		fatal("serve failed", "err", err)
	}

	// Stop admission first — the fabric agent deregisters so the gateway
	// re-routes leased jobs — then drain the workers, each leaving its
	// job's frame chain closed at the last completed step.
	if agentStop != nil {
		close(agentStop)
		<-agentDone
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	if dbgSrv != nil {
		dbgSrv.Close()
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		logger.Warn("worker drain", "err", err)
	}
	if sup != nil {
		if err := sup.Shutdown(); err != nil {
			logger.Warn("cluster shutdown", "err", err)
		}
	}
	logger.Info("stopped")
}

// newLogger builds the daemon's structured logger. Both handlers write
// to stderr like the old log.Printf surface did.
func newLogger(jsonOut bool) *slog.Logger {
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("app", "nbodyd")
}

// debugMux mounts the pprof handlers explicitly (rather than importing
// net/http/pprof for its DefaultServeMux side effect) so nothing else
// ever leaks onto the debug listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}
