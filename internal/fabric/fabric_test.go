package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// quickSpec is a job that completes in well under a second.
func quickSpec(steps int, seed int64) service.JobSpec {
	return service.JobSpec{
		Dist: "uniform", N: 96, Processors: 2, Scheme: "spsa",
		Machine: "ideal", Steps: steps, Eps: 0.05, Seed: seed,
	}
}

// slowSpec is a job that takes long enough to still be running when the
// test acts on it.
func slowSpec(seed int64) service.JobSpec {
	s := quickSpec(1<<20, seed)
	s.N = 256
	return s
}

// fleet is an in-process gateway plus N shard services with agents.
type fleet struct {
	gw    *Gateway
	svcs  []*service.Service
	stops []chan struct{}
	ran   []chan struct{} // closed when an agent's Run returns
}

// startFleet wires up a gateway and n shard agents, waiting for every
// registration.
func startFleet(t *testing.T, n int, opt Options, capacity int) *fleet {
	t.Helper()
	return startFleetWith(t, n, opt, capacity, func(int) service.Options {
		return service.Options{Workers: 2, QueueDepth: 16, Logf: t.Logf}
	})
}

// startFleetWith is startFleet with per-shard service options (e.g. a
// spool + frame cadence for keyframe-handoff tests).
func startFleetWith(t *testing.T, n int, opt Options, capacity int, svcOpt func(i int) service.Options) *fleet {
	t.Helper()
	opt.ControlAddr = "127.0.0.1:0"
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	gw, err := NewGateway(opt)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{gw: gw}
	// Agents stop before their services, as in nbodyd: a stopping agent
	// cancels its jobs, and only a running service ends them.
	t.Cleanup(func() {
		f.stopAgents()
		for _, ran := range f.ran {
			<-ran
		}
		for _, svc := range f.svcs {
			shutdownSvc(t, svc)
		}
		gw.Close()
	})
	for i := 0; i < n; i++ {
		svc, err := service.New(svcOpt(i))
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		f.svcs = append(f.svcs, svc)
		// Each shard serves its own HTTP API like a real nbodyd would;
		// the advertised address is what the gateway's frames proxy
		// dials.
		shardSrv := httptest.NewServer(svc.Handler())
		t.Cleanup(shardSrv.Close)
		agent := &Agent{
			Svc:      svc,
			Gateway:  gw.ControlAddr(),
			Name:     fmt.Sprintf("s%d", i),
			HTTPAddr: strings.TrimPrefix(shardSrv.URL, "http://"),
			Capacity: capacity,
			Logf:     t.Logf,
		}
		stop, ran := make(chan struct{}), make(chan struct{})
		f.stops, f.ran = append(f.stops, stop), append(f.ran, ran)
		go func() {
			defer close(ran)
			agent.Run(stop)
		}()
	}
	waitUntil(t, "all shards registered", func() bool { return len(gw.Shards()) == n })
	return f
}

func (f *fleet) stopAgents() {
	for _, stop := range f.stops {
		select {
		case <-stop:
		default:
			close(stop)
		}
	}
}

// killShard stops one shard's agent (its leases re-route) and waits for
// the gateway to notice.
func (f *fleet) killShard(t *testing.T, i int) {
	t.Helper()
	close(f.stops[i])
	waitUntil(t, "gateway dropped the killed shard", func() bool {
		for _, s := range f.gw.Shards() {
			if s.Name == fmt.Sprintf("s%d", i) {
				return false
			}
		}
		return true
	})
}

func awaitTerminal(t *testing.T, gw *Gateway, id string) GwStatus {
	t.Helper()
	var st GwStatus
	waitUntil(t, "job "+id+" terminal", func() bool {
		var err error
		st, err = gw.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		return st.State.Terminal()
	})
	return st
}

// The golden check: a job routed through gateway → lease → shard must
// return the byte-identical result a direct service run produces.
func TestFleetGoldenMatchesDirect(t *testing.T) {
	f := startFleet(t, 3, Options{LeaseTTL: 5 * time.Second}, 2)
	spec := quickSpec(3, 7)

	direct, err := service.New(service.Options{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	direct.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		direct.Shutdown(ctx)
	}()
	dst, err := direct.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "direct job terminal", func() bool {
		st, _ := direct.Get(dst.ID)
		return st.State.Terminal()
	})
	dres, err := direct.Result(dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(dres)
	if err != nil {
		t.Fatal(err)
	}

	gst, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := awaitTerminal(t, f.gw, gst.ID)
	if fin.State != service.StateDone {
		t.Fatalf("gateway job finished %s (%s), want done", fin.State, fin.Error)
	}
	gatewayJSON, err := f.gw.Result(gst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !samePhysics(t, directJSON, gatewayJSON) {
		t.Fatalf("gateway-routed result differs from direct run:\ndirect:  %.120s\ngateway: %.120s",
			directJSON, gatewayJSON)
	}
}

// samePhysics compares two marshaled results field for field — bodies,
// energies and the simulated machine time alike — after canonical
// re-marshaling.
func samePhysics(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ra, rb service.Result
	if err := json.Unmarshal(a, &ra); err != nil {
		t.Fatalf("unmarshal result A: %v", err)
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		t.Fatalf("unmarshal result B: %v", err)
	}
	ca, errA := json.Marshal(&ra)
	cb, errB := json.Marshal(&rb)
	if errA != nil || errB != nil {
		t.Fatalf("re-marshal results: %v / %v", errA, errB)
	}
	return bytes.Equal(ca, cb)
}

// A second submission of the same canonical spec must be served from the
// result cache: identical bytes, no second simulation anywhere.
func TestFleetCacheHitSkipsSimulation(t *testing.T) {
	f := startFleet(t, 2, Options{LeaseTTL: 5 * time.Second}, 2)
	spec := quickSpec(3, 11)

	first, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, f.gw, first.ID)
	res1, err := f.gw.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	routedBefore := f.gw.Metrics().Routed.Total()

	// Different JSON spelling, same canonical spec: explicit defaults
	// and different host-only fields must still hit.
	spec2 := spec
	spec2.Name = "same physics, different label"
	spec2.Integrator = "leapfrog"
	spec2.Machine = "IDEAL"
	second, err := f.gw.Submit("tenant-b", spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != service.StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	res2, err := f.gw.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("cached result differs from the original")
	}
	if got := f.gw.Metrics().Routed.Total(); got != routedBefore {
		t.Fatalf("cache hit leased work to a shard (routed %d → %d)", routedBefore, got)
	}
	if hits := f.gw.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	var shardJobs int64
	for _, svc := range f.svcs {
		shardJobs += svc.Metrics().JobsSubmitted.Load()
	}
	if shardJobs != 1 {
		t.Fatalf("shards ran %d jobs, want exactly 1 (the cache must absorb the repeat)", shardJobs)
	}
}

// Identical submissions in flight coalesce onto one lease instead of
// simulating twice.
func TestFleetCoalescesInFlight(t *testing.T) {
	f := startFleet(t, 1, Options{LeaseTTL: 5 * time.Second}, 1)

	// Occupy the only lease slot so the next jobs stay pending.
	blocker, err := f.gw.Submit("tenant-a", slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker leased", func() bool {
		shards := f.gw.Shards()
		return len(shards) == 1 && shards[0].Leases == 1
	})

	spec := quickSpec(2, 21)
	leader, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := f.gw.Submit("tenant-b", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("identical pending submission did not coalesce: %+v", follower)
	}
	if f.gw.Metrics().Coalesced.Load() != 1 {
		t.Fatal("coalesced counter not incremented")
	}

	// Free the slot; leader runs; both jobs finish with the same bytes.
	if _, err := f.gw.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	lfin := awaitTerminal(t, f.gw, leader.ID)
	ffin := awaitTerminal(t, f.gw, follower.ID)
	if lfin.State != service.StateDone || ffin.State != service.StateDone {
		t.Fatalf("leader %s, follower %s; want both done", lfin.State, ffin.State)
	}
	lres, _ := f.gw.Result(leader.ID)
	fres, _ := f.gw.Result(follower.ID)
	if !bytes.Equal(lres, fres) {
		t.Fatal("coalesced follower's result differs from the leader's")
	}
}

// Killing a shard mid-run must lose nothing: its leased jobs re-route to
// the survivors and every accepted job still completes.
func TestFleetShardDeathReroutesWithoutLoss(t *testing.T) {
	f := startFleet(t, 3, Options{LeaseTTL: 5 * time.Second}, 1)

	// Enough moderately sized jobs that every shard holds a lease.
	var ids []string
	for i := 0; i < 9; i++ {
		spec := quickSpec(40, int64(100+i))
		spec.N = 128
		st, err := f.gw.Submit("tenant-a", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitUntil(t, "every shard holds a lease", func() bool {
		for _, s := range f.gw.Shards() {
			if s.Leases == 0 {
				return false
			}
		}
		return len(f.gw.Shards()) == 3
	})

	f.killShard(t, 1)

	lost := 0
	for _, id := range ids {
		st := awaitTerminal(t, f.gw, id)
		if st.State != service.StateDone {
			lost++
			t.Errorf("job %s finished %s (%s); want done", id, st.State, st.Error)
		}
	}
	if lost != 0 {
		t.Fatalf("%d accepted job(s) lost after shard death", lost)
	}
	if f.gw.Metrics().Rerouted.Total() == 0 {
		t.Fatal("no re-routes recorded though a leased shard died")
	}
	if len(f.gw.Shards()) != 2 {
		t.Fatalf("fleet view shows %d shards, want 2", len(f.gw.Shards()))
	}
}

// A silent shard — connected but not heartbeating — must be expired by
// the lease watchdog with a heartbeat fault.
func TestFleetHeartbeatExpiry(t *testing.T) {
	opt := Options{LeaseTTL: 300 * time.Millisecond, Logf: t.Logf, ControlAddr: "127.0.0.1:0"}
	gw, err := NewGateway(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	conn, err := dialControl(gw.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := encodeControl(Hello{Name: "mute", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "mute shard registered", func() bool { return len(gw.Shards()) == 1 })
	// Say nothing. The watchdog must declare the shard dead.
	waitUntil(t, "mute shard expired", func() bool { return len(gw.Shards()) == 0 })
}

// Tenant quotas: an exhausted bucket rejects with a positive Retry-After
// while other tenants keep flowing.
func TestFleetQuotaRejects(t *testing.T) {
	f := startFleet(t, 1, Options{
		LeaseTTL:    5 * time.Second,
		TenantRate:  0.001, // effectively no refill during the test
		TenantBurst: 2,
	}, 2)

	spec := slowSpec(31)
	for i := 0; i < 2; i++ {
		s := spec
		s.Seed = int64(31 + i)
		if _, err := f.gw.Submit("greedy", s); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	s := spec
	s.Seed = 99
	_, err := f.gw.Submit("greedy", s)
	rej, ok := err.(*RejectedError)
	if !ok {
		t.Fatalf("third submit err = %v, want *RejectedError", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", rej.RetryAfter)
	}
	if f.gw.Metrics().Rejected.Get("greedy") != 1 {
		t.Fatal("tenant rejection not counted")
	}
	// Another tenant still gets in.
	s.Seed = 100
	if _, err := f.gw.Submit("patient", s); err != nil {
		t.Fatalf("other tenant blocked by greedy tenant's quota: %v", err)
	}
}

// tcp-transport jobs need a shard-local cluster the fabric does not
// orchestrate; the gateway must refuse them up front.
func TestGatewayRejectsClusterTransport(t *testing.T) {
	f := startFleet(t, 1, Options{LeaseTTL: 5 * time.Second}, 1)
	spec := quickSpec(2, 5)
	spec.Transport = "tcp"
	if _, err := f.gw.Submit("t", spec); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("Submit(tcp transport) err = %v, want transport rejection", err)
	}
}

// The HTTP surface: submit → 202, quota → 429 + Retry-After, oversized
// body → 413, /metrics speaks the shared exposition content type.
func TestGatewayHTTP(t *testing.T) {
	f := startFleet(t, 1, Options{
		LeaseTTL:    5 * time.Second,
		TenantRate:  0.001,
		TenantBurst: 1,
	}, 2)
	srv := httptest.NewServer(f.gw.Handler())
	defer srv.Close()

	post := func(tenant string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	body, _ := json.Marshal(quickSpec(2, 41))
	resp := post("web", body)
	var st GwStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	awaitTerminal(t, f.gw, st.ID)

	// Burst of 1 is spent: the next submission is a 429 with Retry-After.
	resp = post("web", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	// Oversized specs bounce with 413 before touching admission.
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxSubmitBytes+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp = post("other", huge)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status = %d, want 413", resp.StatusCode)
	}

	// /metrics speaks the same exposition content type the shards use.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != service.ExpositionContentType {
		t.Fatalf("metrics content type = %q, want %q", ct, service.ExpositionContentType)
	}
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"nbodygw_jobs_routed_total{shard=\"s0\"}",
		"nbodygw_cache_hits_total",
		"nbodygw_tenant_rejected_total{tenant=\"web\"}",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("gateway /metrics missing %q", want)
		}
	}

	// The fleet view lists the registered shard.
	sresp, err := srv.Client().Get(srv.URL + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var shards []ShardStatus
	if err := json.NewDecoder(sresp.Body).Decode(&shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Name != "s0" {
		t.Fatalf("fleet view = %+v, want one shard s0", shards)
	}
}

// dialControl opens a raw control connection (test helper for the
// watchdog test).
func dialControl(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}
