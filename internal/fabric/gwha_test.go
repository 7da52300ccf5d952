package fabric

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// haShard is one shard for the crash-restart tests: a spooled service
// (frames + parked-result directory) plus its agent, started outside
// the fleet helper so the gateway can die and be reborn around it.
type haShard struct {
	svc  *service.Service
	stop chan struct{}
}

func startHAShard(t *testing.T, name, gwAddr string, chaos *transport.FaultPlan) *haShard {
	t.Helper()
	spool := t.TempDir()
	svc, err := service.New(service.Options{
		Workers: 2, QueueDepth: 16, Logf: t.Logf,
		SpoolDir: spool, FramesKeyEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h := &haShard{svc: svc, stop: make(chan struct{})}
	agent := &Agent{
		Svc: svc, Gateway: gwAddr, Name: name, Capacity: 2,
		ParkDir: service.ParkedDir(spool), Chaos: chaos, Logf: t.Logf,
	}
	go agent.Run(h.stop)
	t.Cleanup(func() {
		select {
		case <-h.stop:
		default:
			close(h.stop)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return h
}

// gwStep decodes the completed-step counter out of a gateway status's
// raw progress payload (0 until the shard's first update arrives).
func gwStep(st GwStatus) int {
	var p struct {
		Step int `json:"step"`
	}
	json.Unmarshal(st.Progress, &p)
	return p.Step
}

// runDirect runs one spec on a standalone service and returns its
// marshaled result — the reference for bit-identical physics checks.
func runDirect(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	svc, err := service.New(service.Options{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer shutdownSvc(t, svc)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "direct reference job terminal", func() bool {
		s, _ := svc.Get(st.ID)
		return s.State.Terminal()
	})
	res, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The tentpole drill, in-process: kill the gateway mid-run and restart
// it on the same journal. Nothing may be lost — the in-flight job is
// adopted where it was running (step counter monotonic across the
// crash), the job that finished during the outage drains from the park
// spool, the pre-crash result survives replay, and every completed
// job's physics is bit-identical to an undisturbed run.
func TestGatewayCrashRestartAdoptsAndDrainsParked(t *testing.T) {
	journal := t.TempDir() + "/gw.journal"
	opt := Options{
		JournalPath:     journal,
		LeaseTTL:        5 * time.Second,
		ReconcileWindow: 20 * time.Second,
		Logf:            t.Logf,
	}
	gw1, err := NewGateway(opt)
	if err != nil {
		t.Fatal(err)
	}
	addr := gw1.ControlAddr()

	s0 := startHAShard(t, "ha0", addr, nil)
	s1 := startHAShard(t, "ha1", addr, nil)
	waitUntil(t, "both shards registered", func() bool { return len(gw1.Shards()) == 2 })

	// The slow anchor below owns the adoption guarantee, so this job
	// only has to be mid-run at the crash; whichever way the scheduler
	// lands it — adopted and finished after restart, or finished during
	// the outage and drained from the park spool — it must end done
	// with undisturbed physics.
	longSpec := service.JobSpec{
		Dist: "plummer", N: 160, Processors: 2, Scheme: "spsa",
		Machine: "ideal", Steps: 600, Eps: 0.05, DT: 0.01, Seed: 13,
	}
	parkSpec := longSpec
	parkSpec.Steps, parkSpec.Seed = 300, 21
	quick := quickSpec(3, 7)

	// A job that completes before the crash: its result must survive
	// replay without re-execution.
	preST, err := gw1.Submit("tenant-a", quick)
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitTerminal(t, gw1, preST.ID); st.State != service.StateDone {
		t.Fatalf("pre-crash job finished %s (%s)", st.State, st.Error)
	}

	// The job that spans the crash.
	longST, err := gw1.Submit("tenant-a", longSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "long job past two keyframes", func() bool {
		st, err := gw1.Get(longST.ID)
		if err != nil || st.State.Terminal() {
			t.Fatalf("long job not running: %+v err=%v", st, err)
		}
		return gwStep(st) >= 16
	})

	// The adoption anchor: a job that cannot plausibly finish during
	// the outage, so the restarted gateway always has a live lease to
	// adopt no matter how the scheduler paces the others. Canceled at
	// the end.
	slowST, err := gw1.Submit("tenant-a", slowSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "slow job running on its shard", func() bool {
		st, _ := gw1.Get(slowST.ID)
		return gwStep(st) >= 1
	})

	// The job that will finish while the gateway is dead.
	parkST, err := gw1.Submit("tenant-b", parkSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for progress, not just a lease: Shard is set when the Assign
	// is dispatched, and a crash could land before the agent ever
	// receives it — a step proves the shard is actually executing.
	waitUntil(t, "park job running on its shard", func() bool {
		st, _ := gw1.Get(parkST.ID)
		return gwStep(st) >= 1
	})

	stLong, err := gw1.Get(longST.ID)
	if err != nil {
		t.Fatal(err)
	}
	stepBefore := gwStep(stLong)

	// Crash. (In-process Close is the SIGKILL stand-in —
	// TestGatewaySIGKILLDrill drives the real signal; what matters here is that the journal is
	// all the next gateway gets.)
	if err := gw1.Close(); err != nil {
		t.Fatalf("closing first gateway: %v", err)
	}

	// With the gateway dead, the park job finishes and must spool.
	waitUntil(t, "outage result parked", func() bool {
		return s0.svc.Metrics().ResultsParked.Load()+s1.svc.Metrics().ResultsParked.Load() >= 1
	})

	// Restart on the same journal and the same control address.
	opt.ControlAddr = addr
	gw2, err := NewGateway(opt)
	if err != nil {
		t.Fatalf("restarting gateway on journal: %v", err)
	}
	defer gw2.Close()

	// Replayed pre-crash result is immediately servable.
	if st, err := gw2.Get(preST.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("pre-crash job after replay: %+v err=%v", st, err)
	}
	if _, err := gw2.Result(preST.ID); err != nil {
		t.Fatalf("pre-crash result after replay: %v", err)
	}

	waitUntil(t, "shards re-registered", func() bool { return len(gw2.Shards()) == 2 })
	waitUntil(t, "slow job adopted", func() bool { return gw2.Metrics().JobsAdopted.Load() >= 1 })
	waitUntil(t, "parked result drained", func() bool {
		st, _ := gw2.Get(parkST.ID)
		return st.State.Terminal()
	})
	if st, _ := gw2.Get(parkST.ID); st.State != service.StateDone {
		t.Fatalf("park job finished %s (%s), want done", st.State, st.Error)
	}
	if got := gw2.Metrics().ParkedResults.Load(); got < 1 {
		t.Fatalf("nbodygw_parked_results_total = %d, want >= 1", got)
	}
	// The ack that moves the drain counter arrives a beat after the
	// gateway finishes the job, so this is a wait, not an assertion.
	waitUntil(t, "drain acknowledged on the shard", func() bool {
		return s0.svc.Metrics().ParkedDrained.Load()+s1.svc.Metrics().ParkedDrained.Load() >= 1
	})

	// Adoption, not re-routing: the restarted gateway must never have
	// fault-classified the journaled leases.
	if rerouted := gw2.Metrics().Rerouted.Total(); rerouted != 0 {
		t.Fatalf("restarted gateway re-routed %d job(s); adoption should have re-bound them in place", rerouted)
	}

	// An adopted job's step counter is monotonic across the crash: it
	// kept running, it did not restart. The long job is the observable
	// one (the slow anchor may not have reported a step yet); skip the
	// comparison if it already finished — a job that completed during
	// the outage drained through the park path instead of adoption.
	waitUntil(t, "crash-spanning job reporting progress", func() bool {
		st, _ := gw2.Get(longST.ID)
		return st.State.Terminal() || gwStep(st) > 0
	})
	if st, _ := gw2.Get(longST.ID); !st.State.Terminal() && gwStep(st) < stepBefore {
		t.Fatalf("adopted job stepped backwards: %d before crash, %d after", stepBefore, gwStep(st))
	}

	fin := awaitTerminal(t, gw2, longST.ID)
	if fin.State != service.StateDone {
		t.Fatalf("long job finished %s (%s), want done", fin.State, fin.Error)
	}

	// The anchor survived adoption as a running job; release it.
	if st, _ := gw2.Get(slowST.ID); st.State != service.StateRunning {
		t.Fatalf("slow anchor is %s (%s), want running after adoption", st.State, st.Error)
	}
	if _, err := gw2.Cancel(slowST.ID); err != nil {
		t.Fatalf("cancel slow anchor: %v", err)
	}

	// Reconciliation settled and recorded its duration.
	if sec := gw2.Metrics().ReconcileSeconds(); sec <= 0 {
		t.Fatalf("nbodygw_reconcile_seconds = %v, want > 0 after the window settles", sec)
	}

	// GOLDEN: every result bit-identical to an undisturbed run.
	for _, check := range []struct {
		name string
		id   string
		spec service.JobSpec
	}{
		{"adopted", longST.ID, longSpec},
		{"parked", parkST.ID, parkSpec},
		{"replayed", preST.ID, quick},
	} {
		got, err := gw2.Result(check.id)
		if err != nil {
			t.Fatalf("%s result: %v", check.name, err)
		}
		if !samePhysics(t, runDirect(t, check.spec), got) {
			t.Fatalf("%s job's physics differs from an undisturbed run", check.name)
		}
	}
}

// Satellite 2: a freshly restarted gateway must hold journaled leases
// out of dispatch until the reconcile window expires — and only then
// re-queue them, seeded from the journaled keyframe.
func TestReconcileWindowHoldsJournaledLeases(t *testing.T) {
	journal := t.TempDir() + "/gw.journal"

	// Phase 1: run a framed job long enough to journal a lease and at
	// least one keyframe, then kill everything.
	gw1, err := NewGateway(Options{JournalPath: journal, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sh := startHAShard(t, "w0", gw1.ControlAddr(), nil)
	waitUntil(t, "shard registered", func() bool { return len(gw1.Shards()) == 1 })
	st, err := gw1.Submit("tenant-a", slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "keyframe journaled", func() bool {
		return gw1.Metrics().KeyframesReplicated.Load() >= 1
	})
	// Two submissions of one spec share the shard's second slot: a leader
	// and another tenant's follower coalesced onto it. Both are canceled
	// inside the restarted gateway's reconcile window, below.
	lead, err := gw1.Submit("tenant-a", slowSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	foll, err := gw1.Submit("tenant-b", slowSpec(6))
	if err != nil || !foll.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v err=%v", foll, err)
	}
	waitUntil(t, "second lease journaled", func() bool {
		shards := gw1.Shards()
		return len(shards) == 1 && shards[0].Leases == 2
	})
	if err := gw1.Close(); err != nil {
		t.Fatal(err)
	}
	close(sh.stop) // the old shard never comes back

	// Phase 2: restart with a short window and NO shards. The journaled
	// lease must sit in the reconciliation set — running, unrouted,
	// unclassified — until the window expires.
	gw2, err := NewGateway(Options{
		JournalPath:     journal,
		LeaseTTL:        5 * time.Second,
		ReconcileWindow: 700 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	got, err := gw2.Get(st.ID)
	if err != nil {
		t.Fatalf("journaled job missing after replay: %v", err)
	}
	if got.State != service.StateRunning {
		t.Fatalf("journaled lease replayed as %s, want running (held for reconciliation)", got.State)
	}
	if n := gw2.Metrics().JobsPending.Load(); n != 0 {
		t.Fatalf("journaled lease entered the dispatch queue immediately (pending=%d)", n)
	}
	if n := gw2.Metrics().Rerouted.Total(); n != 0 {
		t.Fatalf("journaled lease fault-classified before the window expired (rerouted=%d)", n)
	}

	// Cancels inside the window. A held leader hands its hold to its
	// follower: the promoted job is neither queued nor finished, it waits
	// for the shard like the job it replaced.
	if cst, err := gw2.Cancel(lead.ID); err != nil || cst.State != service.StateCanceled {
		t.Fatalf("cancel of held leader: %+v err=%v", cst, err)
	}
	if fst, _ := gw2.Get(foll.ID); fst.State != service.StateRunning || fst.Coalesced {
		t.Fatalf("follower of a canceled held leader is %s (coalesced=%v); want it promoted into the hold, running", fst.State, fst.Coalesced)
	}
	if n := gw2.Metrics().JobsPending.Load(); n != 0 {
		t.Fatalf("promotion inside the reconciliation set moved the gauge (pending=%d)", n)
	}
	// The promoted job is now a held job alone; its cancel must stick. A
	// shard reporting either job afterwards is told to release it.
	if cst, err := gw2.Cancel(foll.ID); err != nil || cst.State != service.StateCanceled {
		t.Fatalf("cancel of held job: %+v err=%v", cst, err)
	}
	conn, err := dialControl(gw2.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := encodeControl(Hello{Name: "w0", Capacity: 1})
	report, _ := encodeControl(ReportJobs{Jobs: []ReportedJob{{JobID: lead.ID, LocalID: "l"}, {JobID: foll.ID, LocalID: "f"}}})
	if _, err := conn.Write(append(hello, report...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for released := map[string]bool{}; len(released) < 2; {
		kind, body, err := transport.ReadRaw(conn)
		if err != nil {
			t.Fatalf("reading the report's answers (released so far %v): %v", released, err)
		}
		if v, _ := transport.Unmarshal(body); kind == transport.KindHost {
			if a, ok := v.(Adopt); ok {
				t.Fatalf("canceled job %s adopted from a shard report", a.JobID)
			}
			if r, ok := v.(Release); ok {
				released[r.JobID] = true
			}
		}
	}
	conn.Close()
	waitUntil(t, "reporting session gone", func() bool { return len(gw2.Shards()) == 0 })

	waitUntil(t, "reconcile window expiry re-queues the job", func() bool {
		s, _ := gw2.Get(st.ID)
		return s.State == service.StateQueued
	})
	if n := gw2.Metrics().Rerouted.Get("reconcile"); n != 1 {
		t.Fatalf("nbodygw_jobs_rerouted_total{fault=\"reconcile\"} = %d, want 1", n)
	}
	for _, id := range []string{lead.ID, foll.ID} {
		if s, _ := gw2.Get(id); s.State != service.StateCanceled || s.Retries != 0 {
			t.Fatalf("job %s, canceled inside the reconcile window, is %s (retries=%d) past it", id, s.State, s.Retries)
		}
	}
	if n := gw2.Metrics().JobsPending.Load(); n != 1 {
		t.Fatalf("pending=%d after the window; want only the one re-queued job", n)
	}

	// Phase 3: a fresh shard joins; the re-queued job must dispatch
	// seeded from the journaled keyframe, not restart from step zero.
	startHAShard(t, "w1", gw2.ControlAddr(), nil)
	waitUntil(t, "re-queued job resumed from journaled keyframe", func() bool {
		return gw2.Metrics().JobsResumedFromFrame.Load() >= 1
	})
	if _, err := gw2.Cancel(st.ID); err != nil {
		t.Fatalf("cancel resumed job: %v", err)
	}
}

// Chaos drill: with delay, duplication, and corruption injected on BOTH
// sides of the control plane, every submitted job must still complete
// with physics identical to a clean run. (Drops are excluded by design:
// a dropped Assign has no retransmit timer at this layer; drop coverage
// lives in the transport's own FaultConn suite.)
func TestFleetChaosControlPlane(t *testing.T) {
	// Corruption tears down whole sessions (the decoder cannot trust
	// anything after a bad frame), so its probability is kept low enough
	// that sessions live long enough to make progress, and the re-route
	// budget is raised: the drill pins liveness under faults, not a
	// retry ceiling.
	gwChaos := &transport.FaultPlan{Seed: 7, DelayProb: 0.2, Delay: 2 * time.Millisecond, DupProb: 0.15, CorruptProb: 0.01}
	agChaos := &transport.FaultPlan{Seed: 11, DelayProb: 0.2, Delay: 2 * time.Millisecond, DupProb: 0.15, CorruptProb: 0.01}
	gw, err := NewGateway(Options{
		LeaseTTL:     2 * time.Second,
		RouteRetries: 100,
		Chaos:        gwChaos,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	startHAShard(t, "c0", gw.ControlAddr(), agChaos)
	startHAShard(t, "c1", gw.ControlAddr(), agChaos)
	waitUntil(t, "chaos shards registered", func() bool { return len(gw.Shards()) == 2 })

	ids := make([]string, 0, 6)
	specs := make([]service.JobSpec, 0, 6)
	for i := 0; i < 6; i++ {
		spec := quickSpec(3, int64(100+i))
		st, err := gw.Submit("tenant-a", spec)
		if err != nil {
			t.Fatalf("submit %d under chaos: %v", i, err)
		}
		ids = append(ids, st.ID)
		specs = append(specs, spec)
	}
	for i, id := range ids {
		st := awaitTerminal(t, gw, id)
		if st.State != service.StateDone {
			t.Fatalf("chaos job %d finished %s (%s), want done", i, st.State, st.Error)
		}
	}
	// Physics spot-check against a clean run.
	got, err := gw.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !samePhysics(t, runDirect(t, specs[0]), got) {
		t.Fatal("chaos-routed result differs from a clean run")
	}
}

// The new crash-safety rows must appear in both expositions.
func TestCrashSafetyMetricsExposed(t *testing.T) {
	gm := NewMetrics(time.Unix(0, 0))
	gm.JobsAdopted.Add(2)
	gm.JournalBytes.Store(123)
	gm.SetReconcileSeconds(1.5)
	text := gm.Render(time.Unix(10, 0))
	for _, row := range []string{
		"nbodygw_jobs_adopted_total 2",
		"nbodygw_parked_results_total 0",
		"nbodygw_journal_bytes 123",
		"nbodygw_reconcile_seconds 1.500000",
	} {
		if !strings.Contains(text, row) {
			t.Errorf("gateway exposition missing %q", row)
		}
	}

	svc, err := service.New(service.Options{Workers: 1, QueueDepth: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc.Metrics().ResultsParked.Add(3)
	svc.Metrics().ParkedDrained.Add(2)
	stext := svc.Metrics().Render()
	for _, row := range []string{
		"nbodyd_results_parked_total 3",
		"nbodyd_parked_drained_total 2",
	} {
		if !strings.Contains(stext, row) {
			t.Errorf("service exposition missing %q", row)
		}
	}
}
