package fabric

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// A fabric conn's fault schedule depends on its seed and its control
// messages alone: pings are liveness frames and draw nothing, so an
// agent that pings every 2 ms and one that pings every 200 ms lose the
// same control messages. Seed 1's first draw passes the Hello.
func TestAgentFaultScheduleIgnoresHeartbeatRate(t *testing.T) {
	const results = 24
	var runs [2][]string
	for i, heartbeat := range []int64{2, 200} {
		gw := newFakeGW(t)
		park, _ := newParkStore("")
		for k := 0; k < results; k++ {
			park.Put(&parkedResult{JobID: fmt.Sprintf("g-%02d", k), State: string(service.StateFailed), Err: "x"})
		}
		_, stop := startTestAgent(t, gw, &Agent{park: park, Chaos: &transport.FaultPlan{Seed: 1, DropProb: 0.3}})
		s := gw.acceptWith(Welcome{ShardID: 1, LeaseTTLMillis: 60_000, HeartbeatMillis: heartbeat})
		// The report and the flush of the outbox, until a second passes
		// without a control message; pings keep arriving meanwhile.
		for quiet := time.Now().Add(time.Second); ; {
			s.conn.SetReadDeadline(quiet)
			kind, body, err := transport.ReadRaw(s.conn)
			if err != nil {
				break
			}
			if kind != transport.KindHost {
				continue
			}
			v, err := transport.Unmarshal(body)
			if err != nil {
				t.Fatal(err)
			}
			switch m := v.(type) {
			case ReportJobs:
				runs[i] = append(runs[i], "report")
			case Parked:
				runs[i] = append(runs[i], m.JobID)
			default:
				continue
			}
			quiet = time.Now().Add(time.Second)
		}
		stop()
	}
	t.Logf("received %v", runs[0])
	if n := len(runs[0]); n == 0 || n == results+1 {
		t.Fatalf("%d of %d control messages arrived; the plan should drop some and pass some", n, results+1)
	}
	if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
		t.Fatalf("the fault schedule moved with the heartbeat rate:\n 2 ms: %v\n200 ms: %v", runs[0], runs[1])
	}
}

// An agent's chaos plan draws a new schedule on each session. Seed 2's
// first draw drops the Hello at DropProb 0.3, so an agent that replayed
// that schedule on every redial would never register; this one's Hello
// arrives within a few redials.
func TestAgentChaosRedialDrawsNewSchedule(t *testing.T) {
	gw := newFakeGW(t)
	startTestAgent(t, gw, &Agent{Chaos: &transport.FaultPlan{Seed: 2, DropProb: 0.3},
		bo: transport.NewBackoffSeeded(time.Millisecond, 10*time.Millisecond, 1)})
	for k := 0; k < 6; k++ {
		gw.ln.SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := gw.ln.Accept()
		if err != nil {
			t.Fatalf("awaiting session %d: %v", k, err)
		}
		// The agent waits ten seconds for a Welcome; hanging up after half
		// a second without a Hello makes it dial again.
		hello := false
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		for !hello {
			kind, body, err := transport.ReadRaw(conn)
			if err != nil {
				break
			}
			if kind == transport.KindHost {
				v, _ := transport.Unmarshal(body)
				_, hello = v.(Hello)
			}
		}
		conn.Close()
		if hello {
			if k == 0 {
				t.Fatal("session 0 passed its Hello; seed 2's first draw should drop it")
			}
			t.Logf("the Hello of session %d arrived", k)
			return
		}
	}
	t.Fatal("no Hello in six sessions: each redial replays the schedule that dropped the first one")
}

// A gateway that welcomes the agent and then says nothing is dropped by
// the agent once three lease TTLs pass in silence, at most one keeper
// tick late, and the agent dials again. TestFleetHeartbeatExpiry is the
// gateway-side twin.
func TestAgentDropsSilentGateway(t *testing.T) {
	const ttl = 200 * time.Millisecond
	const deadline, tick = 3 * ttl, 3 * ttl / 4
	gw := newFakeGW(t)
	startTestAgent(t, gw, &Agent{})
	s := gw.acceptWith(Welcome{ShardID: 1, LeaseTTLMillis: ttl.Milliseconds(), HeartbeatMillis: 20})
	welcomed := time.Now()
	// Read the agent's report and pings, answering nothing, until it
	// hangs up.
	s.conn.SetReadDeadline(welcomed.Add(10 * time.Second))
	for {
		if _, _, err := transport.ReadRaw(s.conn); err != nil {
			break
		}
	}
	took := time.Since(welcomed)
	t.Logf("the agent hung up %v after the Welcome", took.Round(time.Millisecond))
	if took < deadline || took > deadline+tick+250*time.Millisecond {
		t.Fatalf("the agent hung up on a silent gateway after %v; want %v, at most one %v tick late", took, deadline, tick)
	}
	gw.accept() // the agent dials again
}

// An idle agent stays registered: after its last control message its
// pings alone keep a short lease alive, well past the ten seconds the
// handshake allows, so no deadline of an earlier write lingers on the
// conn to fail them.
func TestIdleAgentStaysRegistered(t *testing.T) {
	f := startFleet(t, 1, Options{LeaseTTL: 300 * time.Millisecond}, 1)
	waitUntil(t, "shard registered", func() bool { return len(f.gw.Shards()) == 1 })
	before := f.gw.Shards()[0].ID
	time.Sleep(11 * time.Second)
	if after := f.gw.Shards(); len(after) != 1 || after[0].ID != before {
		t.Fatalf("an idle agent lost its registration: shard %d before, %+v after", before, after)
	}
}
