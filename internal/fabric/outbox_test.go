package fabric

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// fakeGW is the gateway end of agent sessions, driven a step at a time
// by a test so an interleaving the real gateway leaves to the scheduler
// happens in one fixed order.
type fakeGW struct {
	t  *testing.T
	ln *net.TCPListener
}

func newFakeGW(t *testing.T) *fakeGW {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakeGW{t: t, ln: ln.(*net.TCPListener)}
}

// accept takes the next agent session: it reads Hello and answers
// Welcome with a lease TTL long enough that no heartbeat interleaves.
func (f *fakeGW) accept() *fakeSession {
	f.t.Helper()
	f.ln.SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := f.ln.Accept()
	if err != nil {
		f.t.Fatalf("awaiting an agent session: %v", err)
	}
	f.t.Cleanup(func() { conn.Close() })
	s := &fakeSession{t: f.t, conn: conn}
	if _, ok := s.next().(Hello); !ok {
		f.t.Fatal("session did not open with Hello")
	}
	s.send(Welcome{ShardID: 1, LeaseTTLMillis: 60_000, HeartbeatMillis: 60_000})
	return s
}

type fakeSession struct {
	t    *testing.T
	conn net.Conn
}

func (s *fakeSession) send(v any) {
	s.t.Helper()
	buf, err := encodeControl(v)
	if err != nil {
		s.t.Fatal(err)
	}
	if _, err := s.conn.Write(buf); err != nil {
		s.t.Fatalf("sending %T: %v", v, err)
	}
}

// next reads the session's next control message.
func (s *fakeSession) next() any {
	s.t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		kind, body, err := transport.ReadRaw(s.conn)
		if err != nil {
			s.t.Fatalf("reading from the agent: %v", err)
		}
		if kind != transport.KindHost {
			continue
		}
		v, err := transport.Unmarshal(body)
		if err != nil {
			s.t.Fatal(err)
		}
		return v
	}
}

// report reads until the agent reports a job's terminal result and
// returns the report's job ID.
func (s *fakeSession) report() string {
	s.t.Helper()
	for {
		if p, ok := s.next().(Parked); ok {
			return p.JobID
		}
	}
}

// startTestAgent runs an agent against gw on a fresh service; the
// returned stop function stops it and waits until Run has returned. The
// service outlives it until the test ends.
func startTestAgent(t *testing.T, gw *fakeGW, parkDir string, park *parkStore) (*Agent, func()) {
	t.Helper()
	svc, err := service.New(service.Options{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() { shutdownSvc(t, svc) })
	a := &Agent{Svc: svc, Gateway: gw.ln.Addr().String(), Name: "outbox", ParkDir: parkDir, park: park, Logf: t.Logf}
	stop, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ran)
		a.Run(stop)
	}()
	stopped := false
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
			<-ran
		}
	}
	t.Cleanup(halt)
	return a, halt
}

// assignSlow leases a job that runs until canceled to the agent and
// returns its local ID.
func assignSlow(t *testing.T, s *fakeSession, jobID string) string {
	t.Helper()
	spec, err := json.Marshal(slowSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	s.send(Assign{Lease: 1, JobID: jobID, SpecJSON: spec})
	for {
		if acc, ok := s.next().(Accept); ok && acc.JobID == jobID {
			if acc.Err != "" {
				t.Fatalf("agent refused %s: %s", jobID, acc.Err)
			}
			return acc.LocalID
		}
	}
}

// agentHolds reports whether the agent still counts jobID in flight.
func agentHolds(a *Agent, jobID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight[jobID] != nil
}

// A job that finishes after a fresh session's ReportJobs listed it and
// after the outbox flush took its backlog, but before the gateway's
// Adopt re-bound it, must still report on that session.
func TestOutboxReportsJobFinishedBeforeAdopt(t *testing.T) {
	gw := newFakeGW(t)
	park, _ := newParkStore("")
	park.Put(&parkedResult{JobID: "g-pre", State: string(service.StateDone), Result: json.RawMessage(`{"steps":1}`)})
	a, _ := startTestAgent(t, gw, "", park)

	s1 := gw.accept()
	localID := assignSlow(t, s1, "g-J")
	s1.conn.Close()

	s2 := gw.accept()
	rep, ok := s2.next().(ReportJobs)
	if !ok || len(rep.Jobs) != 1 || rep.Jobs[0].JobID != "g-J" {
		t.Fatalf("fresh session's first message = %+v, want a ReportJobs listing g-J", rep)
	}
	// The flush sends the one entry it found: its backlog is taken.
	if id := s2.report(); id != "g-pre" {
		t.Fatalf("first report on the fresh session is %s, want the flushed g-pre", id)
	}
	a.Svc.Cancel(localID)
	waitUntil(t, "g-J finished on the agent", func() bool { return !agentHolds(a, "g-J") })
	s2.send(Adopt{Lease: 2, JobID: "g-J", LocalID: localID})
	if id := s2.report(); id != "g-J" {
		t.Fatalf("report on the fresh session is %s, want g-J", id)
	}
}

// A job the agent cancels because it is stopping must never report: the
// gateway re-routes it on the agent's Bye, and a canceled report sent by
// the next start would cancel the healthy re-routed run.
func TestOutboxStopCancelNeverReports(t *testing.T) {
	gw := newFakeGW(t)
	dir := t.TempDir()
	a, stop := startTestAgent(t, gw, dir, nil)
	s1 := gw.accept()
	s1.next() // ReportJobs
	assignSlow(t, s1, "g-a-job")
	stop()
	waitUntil(t, "the stopped job finished on the agent", func() bool { return !agentHolds(a, "g-a-job") })

	// A sentinel entry sorting after the job: the flush goes in job-ID
	// order, so the sentinel arriving first proves no report for the job
	// was queued.
	park, err := newParkStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	park.Put(&parkedResult{JobID: "g-z-sentinel", State: string(service.StateFailed), Err: "sentinel"})
	startTestAgent(t, gw, dir, nil)
	s2 := gw.accept()
	if rep, ok := s2.next().(ReportJobs); !ok || len(rep.Jobs) != 0 {
		t.Fatalf("fresh agent's first message = %+v, want an empty ReportJobs", rep)
	}
	if id := s2.report(); id != "g-z-sentinel" {
		t.Fatalf("fresh agent reported %s; a job canceled by the stop must never report", id)
	}
}

// The gateway's one result handler: which reports settle a job, which
// get a Cancel to another session's lease, which count as parked — and
// every report gets exactly one ack.
func TestGatewayResultHandler(t *testing.T) {
	const (
		none = iota // the job is queued: no session holds it
		sender
		other
	)
	cases := []struct {
		name       string
		holder     int
		unknown    bool     // the report names a job the gateway never had
		heir       bool     // a follower took the canceled job's place first
		reports    []string // states reported, in order
		want       service.State
		wantCancel bool  // the other session got a Cancel
		parked     int64 // nbodygw_parked_results_total
		settled    int64 // jobs finished, whatever the state
	}{
		{name: "done from a session that holds no lease", holder: other,
			reports: []string{"done"}, want: service.StateDone, wantCancel: true, parked: 1, settled: 1},
		{name: "failed while another session holds the lease", holder: other,
			reports: []string{"failed"}, want: service.StateRunning},
		{name: "canceled while another session holds the lease", holder: other,
			reports: []string{"canceled"}, want: service.StateRunning},
		{name: "failed from the lease holder", holder: sender,
			reports: []string{"failed"}, want: service.StateFailed, settled: 1},
		{name: "canceled with no session holding the job", holder: none,
			reports: []string{"canceled"}, want: service.StateCanceled, parked: 1, settled: 1},
		{name: "terminal job", holder: sender,
			reports: []string{"done", "failed"}, want: service.StateDone, settled: 1},
		{name: "duplicate", holder: sender,
			reports: []string{"done", "done"}, want: service.StateDone, settled: 1},
		{name: "unknown job", holder: sender, unknown: true,
			reports: []string{"done"}, want: service.StateRunning},
		{name: "canceled leader's report lands on its heir", holder: sender, heir: true,
			reports: []string{"done"}, want: service.StateDone, settled: 2},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGateway(Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			shard := func() *shardConn {
				return &shardConn{sendq: make(chan []byte, 16), leases: make(map[uint64]*GwJob)}
			}
			snd, oth := shard(), shard()
			spec := quickSpec(2, int64(100+i))
			st, err := g.Submit("t", spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.holder != none {
				g.mu.Lock()
				j := g.jobs[st.ID]
				g.leaseLocked(j, map[int]*shardConn{sender: snd, other: oth}[tc.holder], g.nextLease.Add(1))
				j.State = service.StateRunning
				g.mu.Unlock()
			}
			reportID, watched := st.ID, st.ID
			if tc.unknown {
				reportID = "g-unknown"
			}
			if tc.heir {
				heir, err := g.Submit("t2", spec)
				if err != nil || !heir.Coalesced {
					t.Fatalf("second submission did not coalesce: %+v err=%v", heir, err)
				}
				if _, err := g.Cancel(st.ID); err != nil {
					t.Fatal(err)
				}
				watched = heir.ID
			}
			for _, state := range tc.reports {
				g.handleControl(snd, Parked{JobID: reportID, State: state, Err: "x", ResultJSON: []byte(`{"steps":2}`)})
			}

			if got, _ := g.Get(watched); got.State != tc.want {
				t.Fatalf("job is %s after the reports, want %s", got.State, tc.want)
			}
			acks := 0
			for _, m := range drainSendq(t, snd) {
				if ack, ok := m.(ParkedAck); ok && ack.JobID == reportID {
					acks++
				}
			}
			if acks != len(tc.reports) {
				t.Fatalf("%d acks for %d reports", acks, len(tc.reports))
			}
			canceled := false
			for _, m := range drainSendq(t, oth) {
				_, canceled = m.(Cancel)
			}
			if canceled != tc.wantCancel {
				t.Fatalf("other session canceled = %v, want %v", canceled, tc.wantCancel)
			}
			m := g.Metrics()
			if n := m.ParkedResults.Load(); n != tc.parked {
				t.Fatalf("nbodygw_parked_results_total = %d, want %d", n, tc.parked)
			}
			if n := m.JobsDone.Load() + m.JobsFailed.Load() + m.JobsCanceled.Load(); n != tc.settled {
				t.Fatalf("%d jobs finished, want %d", n, tc.settled)
			}
		})
	}
}

// A shard reports an in-flight job under the ID it was assigned. After a
// leased leader is canceled and its follower promoted, the session drops
// and the shard reconnects: its report names the canceled leader, and
// the heir — which took over the lease and then the hold — is adopted
// under that ID rather than released.
func TestGatewayReportAdoptsHeir(t *testing.T) {
	g, err := NewGateway(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	conn, peer := net.Pipe()
	defer peer.Close()
	old := &shardConn{conn: conn, sendq: make(chan []byte, 16), leases: make(map[uint64]*GwJob)}
	fresh := &shardConn{sendq: make(chan []byte, 16), leases: make(map[uint64]*GwJob)}
	spec := quickSpec(2, 300)
	leader, err := g.Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	j := g.jobs[leader.ID]
	g.leaseLocked(j, old, g.nextLease.Add(1))
	j.State = service.StateRunning
	g.mu.Unlock()
	heir, err := g.Submit("t2", spec)
	if err != nil || !heir.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v err=%v", heir, err)
	}
	if _, err := g.Cancel(leader.ID); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.retireShardLocked(old, nil) // the shard dialed a replacement session
	g.mu.Unlock()

	g.handleControl(fresh, ReportJobs{Jobs: []ReportedJob{{JobID: leader.ID, LocalID: "j-local", Step: 1}}})
	var adopts []Adopt
	for _, m := range drainSendq(t, fresh) {
		switch m := m.(type) {
		case Adopt:
			adopts = append(adopts, m)
		case Release:
			t.Fatalf("report of the canceled leader got %+v; its heir must be adopted", m)
		}
	}
	if len(adopts) != 1 || adopts[0].JobID != leader.ID || adopts[0].LocalID != "j-local" {
		t.Fatalf("adopts %+v, want one for %s (the shard's key for the run)", adopts, leader.ID)
	}
	g.mu.Lock()
	hj := g.jobs[heir.ID]
	leased := hj.place == placeLeased && hj.shard == fresh && hj.Lease == adopts[0].Lease
	g.mu.Unlock()
	if !leased {
		t.Fatal("heir is not leased to the reporting session under the adopted lease")
	}
	if st, _ := g.Get(heir.ID); st.State != service.StateRunning {
		t.Fatalf("heir is %s after the report, want running", st.State)
	}
	if n := g.Metrics().JobsAdopted.Load(); n != 1 {
		t.Fatalf("nbodygw_jobs_adopted_total = %d, want 1", n)
	}
}

// drainSendq decodes every control message queued for a session.
func drainSendq(t *testing.T, sc *shardConn) []any {
	t.Helper()
	var out []any
	for {
		select {
		case buf := <-sc.sendq:
			_, body, err := transport.ReadRaw(bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			v, err := transport.Unmarshal(body)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		default:
			return out
		}
	}
}
