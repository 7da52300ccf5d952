package fabric

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// A shard whose send queue is full must be failed in place by the
// dispatch loop, which runs under the gateway mutex — the unlocked
// shardFailed wrapper there would self-deadlock and wedge every API
// handler forever.
func TestDispatchToStalledShardDoesNotDeadlock(t *testing.T) {
	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// A hand-built shard session: one-slot send queue, already full,
	// no writer goroutine draining it.
	c1, c2 := net.Pipe()
	defer c2.Close()
	sc := &shardConn{
		name:     "stalled",
		capacity: 4,
		conn:     c1,
		sendq:    make(chan []byte, 1),
		leases:   make(map[uint64]*GwJob),
	}
	sc.lastSeen.Store(time.Now().UnixNano())
	sc.sendq <- []byte("wedge")
	gw.mu.Lock()
	sc.id = gw.nextShard
	gw.nextShard++
	gw.shards[sc.id] = sc
	gw.rebuildRingLocked()
	gw.mu.Unlock()

	done := make(chan GwStatus, 1)
	go func() {
		st, err := gw.Submit("t", quickSpec(2, 81))
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		done <- st
	}()
	var st GwStatus
	select {
	case st = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit wedged dispatching to a stalled shard (send-path deadlock)")
	}
	if n := len(gw.Shards()); n != 0 {
		t.Fatalf("stalled shard still registered (%d shards); want it failed", n)
	}
	got, err := gw.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Terminal() {
		t.Fatalf("job reached %s; want it re-queued for the next shard", got.State)
	}
}

// Canceling a pending leader must not cancel the coalesced followers
// riding on it: the first follower inherits the queue slot and still
// completes, exactly like the leased-leader promotion.
func TestCancelPendingLeaderPromotesFollower(t *testing.T) {
	f := startFleet(t, 1, Options{LeaseTTL: 5 * time.Second}, 1)

	// Occupy the only lease slot so the leader/follower pair stays
	// pending.
	blocker, err := f.gw.Submit("tenant-a", slowSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker leased", func() bool {
		shards := f.gw.Shards()
		return len(shards) == 1 && shards[0].Leases == 1
	})

	spec := quickSpec(2, 62)
	leader, err := f.gw.Submit("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := f.gw.Submit("tenant-b", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v", follower)
	}

	cst, err := f.gw.Cancel(leader.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != service.StateCanceled {
		t.Fatalf("canceled leader state = %s, want canceled", cst.State)
	}
	fst, err := f.gw.Get(follower.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fst.State.Terminal() {
		t.Fatalf("follower reached %s when its leader was canceled; want it promoted and still queued", fst.State)
	}

	// Free the slot: the promoted follower must run to completion.
	if _, err := f.gw.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	fin := awaitTerminal(t, f.gw, follower.ID)
	if fin.State != service.StateDone {
		t.Fatalf("promoted follower finished %s (%s); want done", fin.State, fin.Error)
	}
	if _, err := f.gw.Result(follower.ID); err != nil {
		t.Fatalf("promoted follower has no result: %v", err)
	}
}

// startMuteCancelShard registers a protocol-correct shard that accepts
// assignments but silently ignores Cancel frames, so a gateway-side
// cancel can never be acknowledged before the shard dies.
func startMuteCancelShard(t *testing.T, gw *Gateway, name string, capacity int32) net.Conn {
	t.Helper()
	conn, err := dialControl(gw.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	hello, err := encodeControl(Hello{Name: name, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			kind, body, err := transport.ReadRaw(conn)
			if err != nil {
				return
			}
			if kind != transport.KindHost {
				continue
			}
			v, err := transport.Unmarshal(body)
			if err != nil {
				return
			}
			if a, ok := v.(Assign); ok {
				ack, err := encodeControl(Accept{Lease: a.Lease, JobID: a.JobID, LocalID: "local-" + a.JobID})
				if err != nil {
					return
				}
				conn.Write(ack)
			}
			// Welcome, Pong: nothing to do. Cancel: deliberately ignored.
		}
	}()
	waitUntil(t, "mute-cancel shard registered", func() bool { return len(gw.Shards()) == 1 })
	return conn
}

// A cancel forwarded to a shard that dies before acknowledging must
// stick: the orphaned lease finishes canceled instead of being
// re-routed and run to completion behind the caller's back. A fresh
// submission of the same spec must not coalesce onto the doomed leader.
func TestCancelSurvivesShardDeath(t *testing.T) {
	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	conn := startMuteCancelShard(t, gw, "mute-cancel", 1)
	defer conn.Close()

	spec := quickSpec(2, 51)
	st, err := gw.Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job leased to the mute shard", func() bool {
		shards := gw.Shards()
		return len(shards) == 1 && shards[0].Leases == 1
	})

	if _, err := gw.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}

	// The leader's cancel is in flight: an identical submission must
	// start a fresh job, not ride along into the cancel.
	st2, err := gw.Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Coalesced {
		t.Fatal("fresh submission coalesced onto a leader whose cancel is in flight")
	}

	// The shard dies without ever acknowledging the cancel.
	conn.Close()
	fin := awaitTerminal(t, gw, st.ID)
	if fin.State != service.StateCanceled {
		t.Fatalf("job finished %s after its shard died; want the requested cancel honored", fin.State)
	}
	if n := gw.Metrics().Rerouted.Total(); n != 0 {
		t.Fatalf("cancel-requested job was re-routed %d time(s); want 0", n)
	}
	// The replacement submission survives, waiting for fleet capacity.
	got, err := gw.Get(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Terminal() {
		t.Fatalf("replacement job reached %s; want it still queued", got.State)
	}
}

// A backlog-full rejection must refund the tenant's quota token, and
// canceling a queued job must free its backlog slot immediately — the
// two halves of "a full fleet does not also burn quota".
func TestBacklogRejectionRefundsQuotaAndCancelFreesSlot(t *testing.T) {
	// No shards: every admitted job stays pending. Burst of 3 with no
	// meaningful refill bounds the total token spend.
	gw, err := NewGateway(Options{
		ControlAddr: "127.0.0.1:0",
		MaxPending:  1,
		TenantRate:  0.001,
		TenantBurst: 3,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	s1, err := gw.Submit("t", quickSpec(2, 71))
	if err != nil {
		t.Fatal(err)
	}
	_, err = gw.Submit("t", quickSpec(2, 72))
	rej, ok := err.(*RejectedError)
	if !ok {
		t.Fatalf("submit over backlog err = %v, want *RejectedError", err)
	}
	if rej.Reason != "dispatch backlog full" {
		t.Fatalf("rejection reason = %q, want backlog-full", rej.Reason)
	}

	// Canceling the queued job frees its slot right away…
	if _, err := gw.Cancel(s1.ID); err != nil {
		t.Fatal(err)
	}
	s3, err := gw.Submit("t", quickSpec(2, 73))
	if err != nil {
		t.Fatalf("submit after cancel rejected (%v); canceled job still pinned the backlog", err)
	}
	// …and with the rejected submission's token refunded, a third
	// admission still fits the burst of 3.
	if _, err := gw.Cancel(s3.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Submit("t", quickSpec(2, 74)); err != nil {
		t.Fatalf("third admission rejected (%v); backlog-full rejection burned a quota token", err)
	}
}

// Every submit body the gateway refuses before it becomes a job counts
// in nbodygw_jobs_invalid_total, as nbodyd counts it: one it cannot
// decode (400), one over the size bound (413), and a decoded spec that
// fails validation (400).
func TestGatewayCountsUndecodableSubmits(t *testing.T) {
	gw, err := NewGateway(Options{ControlAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	for _, c := range []struct {
		body string
		code int
	}{
		{"{nope", http.StatusBadRequest},
		{`{"bogus_field": 1}`, http.StatusBadRequest},
		{`{"name": "` + strings.Repeat("x", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"n": -1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("submit %.40q answered %d, want %d", c.body, resp.StatusCode, c.code)
		}
	}
	if got := gw.Metrics().JobsInvalid.Load(); got != 4 {
		t.Fatalf("nbodygw_jobs_invalid_total = %d after four refused bodies, want 4", got)
	}
}
