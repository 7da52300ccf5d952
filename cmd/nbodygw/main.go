// Command nbodygw is the fleet gateway: it consistent-hashes submitted
// simulation jobs across the nbodyd shards registered with it, leases
// each job to a shard under a heartbeat lease (re-routing on shard
// death), enforces per-tenant admission quotas with weighted fair
// queueing, and serves repeated submissions of the same canonical spec
// from its result log, where every terminal result is kept once per
// canonical spec (beside the journal, at <journal>.results).
//
// Usage:
//
//	nbodygw -addr :8090 -control 127.0.0.1:9090
//	nbodyd  -addr :8081 -gateway 127.0.0.1:9090 -shard-name s1
//
// The HTTP surface mirrors nbodyd's job API (submit, inspect, cancel,
// result) so clients can point at a fleet or a single shard
// interchangeably, plus:
//
//	GET /api/v1/shards  the registered fleet, lease counts, routing totals
//	GET /metrics        gateway counters (routing, cache, tenants)
//
// Tenancy rides in the X-Tenant request header; requests without one
// share the "default" tenant. Quota refusals are 429 with a Retry-After
// hint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "HTTP listen address (the client-facing API)")
		control   = flag.String("control", "127.0.0.1:9090", "TCP listen address shards register on")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON records instead of text")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "silence window before a shard is declared dead")
		pending   = flag.Int("max-pending", 1024, "admitted-but-unleased job bound (beyond it: 429)")
		rate      = flag.Float64("tenant-rate", 50, "default tenant token-bucket refill rate (jobs/s)")
		burst     = flag.Float64("tenant-burst", 100, "default tenant token-bucket capacity")
		tenantStr = flag.String("tenants", "", "per-tenant overrides: name=rate:burst:weight[,name=...]")
		journal   = flag.String("journal", "", "durable job-journal path; restart on the same file recovers the fleet state")
		reconcile = flag.Duration("reconcile-window", 15*time.Second, "how long a restarted gateway holds journaled leases for shard reports before re-queueing")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	tenants, err := parseTenants(*tenantStr)
	if err != nil {
		fatal("bad -tenants", "err", err)
	}

	gw, err := fabric.NewGateway(fabric.Options{
		ControlAddr:     *control,
		LeaseTTL:        *leaseTTL,
		MaxPending:      *pending,
		TenantRate:      *rate,
		TenantBurst:     *burst,
		Tenants:         tenants,
		JournalPath:     *journal,
		ReconcileWindow: *reconcile,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...), "component", "fabric")
		},
	})
	if err != nil {
		fatal("gateway init failed", "err", err)
	}

	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "control", gw.ControlAddr(),
		"lease_ttl", leaseTTL.String(), "tenant_rate", *rate, "tenant_burst", *burst)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received, shutting down")
	case err := <-errc:
		fatal("serve failed", "err", err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	gw.Close()
	logger.Info("stopped")
}

// parseTenants decodes "name=rate:burst:weight,..." (burst and weight
// optional) into per-tenant configs.
func parseTenants(s string) (map[string]fabric.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]fabric.TenantConfig)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, params, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("entry %q: want name=rate[:burst[:weight]]", entry)
		}
		var cfg fabric.TenantConfig
		parts := strings.Split(params, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("entry %q: too many fields", entry)
		}
		if _, err := fmt.Sscanf(parts[0], "%g", &cfg.Rate); err != nil {
			return nil, fmt.Errorf("entry %q: bad rate %q", entry, parts[0])
		}
		if len(parts) > 1 {
			if _, err := fmt.Sscanf(parts[1], "%g", &cfg.Burst); err != nil {
				return nil, fmt.Errorf("entry %q: bad burst %q", entry, parts[1])
			}
		}
		if len(parts) > 2 {
			if _, err := fmt.Sscanf(parts[2], "%g", &cfg.Weight); err != nil {
				return nil, fmt.Errorf("entry %q: bad weight %q", entry, parts[2])
			}
		}
		out[strings.TrimSpace(name)] = cfg
	}
	return out, nil
}

// newLogger builds the gateway's structured logger.
func newLogger(jsonOut bool) *slog.Logger {
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h).With("app", "nbodygw")
}
