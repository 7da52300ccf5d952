package fabric

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// Agent is the shard side of the fabric: it registers a local
// service.Service with a gateway, accepts leased assignments, runs them
// through the local job queue, streams progress back, and reports
// terminal results. It reconnects with jittered backoff if the gateway
// drops — and, crucially, keeps its leased jobs RUNNING through the
// outage: the gateway journal remembers them, the reconnect handshake
// reports them, and the gateway adopts them in place instead of
// re-executing. Every terminal result goes through one outbox (spooled
// when ParkDir is set): it is sent, addressed by job ID, at once when a
// session is live and by each new session's flush otherwise, and leaves
// the outbox only on the gateway's ack.
type Agent struct {
	// Svc is the local job service assignments run on.
	Svc *service.Service
	// Gateway is the gateway control address to register with.
	Gateway string
	// Name identifies this shard on the hash ring; it must be stable
	// across reconnects so the shard keeps its ring positions.
	Name string
	// HTTPAddr is this shard's own API address, advertised for
	// debugging (the fleet view shows it).
	HTTPAddr string
	// Capacity is the number of concurrent leases to advertise
	// (default 1).
	Capacity int
	// ParkDir, when set, spools the outbox to one JSON file per job
	// (written atomically), so results the gateway has not acknowledged
	// survive an agent restart too. Daemons derive it from the service
	// spool via service.ParkedDir. Empty keeps the outbox in memory only.
	ParkDir string
	// Chaos, when set, wraps the gateway connection in a
	// transport.FaultConn so drills can inject the PR-4 fault taxonomy
	// into the shard side of the control plane; the k-th session draws
	// from Chaos.Session(k). Tests only.
	Chaos *transport.FaultPlan
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	inflight map[string]*agentJob // gateway job ID → live local job
	byLocal  map[string]*agentJob // local job ID → same (frame hook lookup)
	byLease  map[uint64]*agentJob // current lease → same (cancel lookup)
	sess     *agentSession        // live gateway session, nil during outages
	park     *parkStore           // the outbox
	bo       *transport.Backoff
	dials    int            // gateway conns opened so far: the next session's Chaos.Session index
	watching sync.WaitGroup // one per job's watch; Run waits for them
	released chan struct{}  // closed by cancelLocal, once Run stops
}

// agentJob is one gateway-leased job the agent is running locally. It
// outlives gateway sessions: the lease re-binds on every reconnect
// (fresh Assign de-dup or Adopt), while the local job runs undisturbed.
type agentJob struct {
	gwID     string
	localID  string
	lease    uint64 // 0 while the gateway is away
	released bool   // gateway declined the job, or the agent is stopping; never reported
	kfStep   int64
	kf       []byte // latest frame-store keyframe, re-sent after Adopt
}

// agentSession is one live gateway connection.
type agentSession struct {
	agent *Agent
	live  *transport.Live // every frame after the handshake goes through it
	gone  chan struct{}   // closed when the session tears down
}

// Run connects to the gateway and serves assignments until stop
// closes. Connection failures retry with jittered, capped exponential
// backoff (reset after every healthy session); Run only returns on
// stop, cancelling the local jobs it was running for the gateway, once
// every goroutine watching one of them has ended.
func (a *Agent) Run(stop <-chan struct{}) {
	if a.Logf == nil {
		a.Logf = log.Printf
	}
	if a.Capacity < 1 {
		a.Capacity = 1
	}
	a.mu.Lock()
	if a.inflight == nil {
		a.inflight = make(map[string]*agentJob)
		a.byLocal = make(map[string]*agentJob)
		a.byLease = make(map[uint64]*agentJob)
	}
	if a.bo == nil {
		a.bo = transport.NewBackoff(250*time.Millisecond, 5*time.Second, a.Name)
	}
	if a.park == nil {
		ps, err := newParkStore(a.ParkDir)
		if err != nil {
			a.Logf("fabric agent %s: park dir unavailable (%v); parking in memory", a.Name, err)
			ps, _ = newParkStore("")
		} else if n := ps.Len(); n > 0 {
			a.Logf("fabric agent %s: %d parked result(s) recovered from %s", a.Name, n, a.ParkDir)
		}
		a.park = ps
	}
	a.released = make(chan struct{})
	a.mu.Unlock()
	defer a.watching.Wait()

	// Keyframes stream from worker goroutines for the whole agent
	// lifetime: each is remembered per job (so an Adopt can re-seed a
	// restarted gateway's journal) and forwarded when a session is live.
	a.Svc.SetFrameHook(func(localID string, step int64, rec []byte) {
		a.mu.Lock()
		j := a.byLocal[localID]
		var lease uint64
		var sess *agentSession
		if j != nil {
			j.kf = append(j.kf[:0], rec...)
			j.kfStep = step
			lease, sess = j.lease, a.sess
		}
		a.mu.Unlock()
		if j == nil || sess == nil || lease == 0 {
			return
		}
		sess.send(Keyframe{Lease: lease, JobID: j.gwID, Step: step, Data: rec})
	})
	defer a.Svc.SetFrameHook(nil)
	defer a.cancelLocal()

	for {
		select {
		case <-stop:
			return
		default:
		}
		welcomed, err := a.session(stop)
		select {
		case <-stop:
			return
		default:
		}
		if welcomed {
			a.bo.Reset()
		}
		d := a.bo.Next()
		if err != nil {
			a.Logf("fabric agent %s: session ended: %v (reconnecting in %v)", a.Name, err, d.Round(time.Millisecond))
		}
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
	}
}

// cancelLocal cancels every gateway-leased local job: the agent is
// stopping for good, not riding out an outage. Released first, they
// never report: the gateway re-routes them on the Bye, and a stale
// canceled report would cancel the re-routed run. Closing released then
// ends every job's watch.
func (a *Agent) cancelLocal() {
	a.mu.Lock()
	locals := make([]string, 0, len(a.inflight))
	for _, j := range a.inflight {
		j.released = true
		locals = append(locals, j.localID)
	}
	a.mu.Unlock()
	for _, id := range locals {
		a.Svc.Cancel(id)
	}
	close(a.released)
}

// session runs one registration: Hello/Welcome, the in-flight lease
// report, the outbox flush, then the assignment pump until the
// connection dies or stop closes. The bool reports whether the session
// got past the handshake (healthy — reset the reconnect backoff).
func (a *Agent) session(stop <-chan struct{}) (bool, error) {
	conn, err := net.DialTimeout("tcp", a.Gateway, 5*time.Second)
	if err != nil {
		return false, fmt.Errorf("dial gateway %s: %w", a.Gateway, err)
	}
	if a.Chaos != nil {
		conn = transport.NewFaultConn(conn, a.Chaos.Session(a.dials))
	}
	a.dials++
	defer conn.Close()

	// The handshake has ten seconds, for the Hello's write and the
	// Welcome's read alike; after it the conn has no deadline, and the
	// keeper alone decides when a silent gateway is gone.
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello, err := encodeControl(Hello{Name: a.Name, HTTPAddr: a.HTTPAddr, Capacity: int32(a.Capacity)})
	if err == nil {
		_, err = conn.Write(hello)
	}
	if err != nil {
		return false, fmt.Errorf("hello: %w", err)
	}
	kind, body, err := transport.ReadRaw(conn)
	if err != nil {
		return false, fmt.Errorf("awaiting welcome: %w", err)
	}
	conn.SetDeadline(time.Time{})
	if kind != transport.KindHost {
		return false, fmt.Errorf("awaiting welcome: unexpected frame kind %d", kind)
	}
	v, err := transport.Unmarshal(body)
	if err != nil {
		return false, fmt.Errorf("decoding welcome: %w", err)
	}
	welcome, ok := v.(Welcome)
	if !ok {
		return false, fmt.Errorf("awaiting welcome: unexpected message %T", v)
	}
	leaseTTL := time.Duration(welcome.LeaseTTLMillis) * time.Millisecond
	heartbeat := time.Duration(welcome.HeartbeatMillis) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = leaseTTL / 4
	}
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	s := &agentSession{agent: a, live: transport.NewLive(conn, -1, nil), gone: make(chan struct{})}
	defer s.close()
	a.mu.Lock()
	a.sess = s
	a.mu.Unlock()
	a.Logf("fabric agent %s: registered with %s as shard %d (lease TTL %v)",
		a.Name, a.Gateway, welcome.ShardID, leaseTTL)

	// First business on a fresh session: report every job still running
	// for the gateway so it adopts them instead of re-routing (an empty
	// report is still sent — it tells a restarted gateway this shard
	// holds nothing). Then flush the outbox in the background.
	if err := s.send(ReportJobs{Jobs: a.reportedJobs()}); err != nil {
		return false, fmt.Errorf("reporting in-flight jobs: %w", err)
	}
	go a.flush(s, stop)

	// The pings keep the lease alive when no job traffic flows; a
	// gateway silent past three lease TTLs is gone. A stop says Bye.
	kept := make(chan struct{})
	go func() {
		defer close(kept)
		s.live.Keep(heartbeat, 3*leaseTTL, stop)
	}()
	defer func() { <-kept }() // the keeper ends once Read has returned
	err = s.live.Read(func(kind uint8, body []byte) error {
		if kind != transport.KindHost {
			return nil
		}
		v, err := transport.Unmarshal(body)
		if err != nil {
			return fmt.Errorf("decoding control frame: %w", err)
		}
		s.handle(v)
		return nil
	})
	if err == nil {
		return true, fmt.Errorf("gateway said goodbye")
	}
	return true, fmt.Errorf("gateway connection: %w", err)
}

// reportedJobs snapshots the in-flight set for the reconnect report,
// with each job's current completed-step count so drills can assert
// adopted jobs never move backwards.
func (a *Agent) reportedJobs() []ReportedJob {
	a.mu.Lock()
	jobs := make([]*agentJob, 0, len(a.inflight))
	for _, j := range a.inflight {
		if !j.released {
			jobs = append(jobs, j)
		}
	}
	a.mu.Unlock()
	out := make([]ReportedJob, 0, len(jobs))
	for _, j := range jobs {
		step := int64(0)
		if st, err := a.Svc.Get(j.localID); err == nil {
			step = int64(st.Progress.Step)
		}
		out = append(out, ReportedJob{JobID: j.gwID, LocalID: j.localID, Step: step})
	}
	return out
}

// flush sends the outbox's backlog to a fresh session, one report per
// job with jittered pacing so a fleet reconnecting in unison does not
// dump every outbox into the gateway at the same instant. Entries leave
// on ParkedAck, not here, so a session that dies mid-flush resends the
// remainder next time.
func (a *Agent) flush(s *agentSession, stop <-chan struct{}) {
	for i, p := range a.park.List() {
		if i > 0 {
			select {
			case <-stop:
				return
			case <-s.gone:
				return
			case <-time.After(a.bo.Jitter(5*time.Millisecond, 40*time.Millisecond)):
			}
		}
		if s.send(p.report()) != nil {
			return
		}
	}
}

// handle dispatches one gateway message.
func (s *agentSession) handle(v any) {
	switch msg := v.(type) {
	case Assign:
		s.handleAssign(msg)
	case Adopt:
		s.handleAdopt(msg)
	case Cancel:
		s.handleCancel(msg)
	case Release:
		s.handleRelease(msg)
	case ParkedAck:
		s.handleAck(msg)
	default:
		s.agent.Logf("fabric agent %s: unexpected control message %T", s.agent.Name, v)
	}
}

// handleAssign admits one leased job into the local service and spawns
// the watcher. If the gateway re-assigns a job this agent is ALREADY
// running (its reconcile window expired before this shard reconnected,
// and the ring routed the retry back here), the existing local job is
// re-bound to the new lease instead of starting a duplicate run.
func (s *agentSession) handleAssign(msg Assign) {
	a := s.agent
	a.mu.Lock()
	if j := a.inflight[msg.JobID]; j != nil && !j.released {
		if j.lease != 0 {
			delete(a.byLease, j.lease)
		}
		j.lease = msg.Lease
		a.byLease[msg.Lease] = j
		localID := j.localID
		a.mu.Unlock()
		step := int64(0)
		if st, err := a.Svc.Get(localID); err == nil {
			step = int64(st.Progress.Step)
		}
		s.send(Accept{Lease: msg.Lease, JobID: msg.JobID, LocalID: localID, ResumedStep: step})
		return
	}
	a.mu.Unlock()

	var spec service.JobSpec
	if err := json.Unmarshal(msg.SpecJSON, &spec); err != nil {
		s.send(Accept{Lease: msg.Lease, JobID: msg.JobID, Err: fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	// A re-routed job carries the victim shard's last replicated keyframe
	// and resumes from it. SubmitSeeded degrades to a from-scratch run on
	// an empty seed or any problem with it, so the assignment never
	// bounces over a stale frame.
	st, err := a.Svc.SubmitSeeded(spec, msg.Keyframe)
	if err != nil {
		s.send(Accept{Lease: msg.Lease, JobID: msg.JobID, Err: err.Error()})
		return
	}
	j := &agentJob{gwID: msg.JobID, localID: st.ID, lease: msg.Lease}
	a.mu.Lock()
	a.inflight[msg.JobID] = j
	a.byLocal[st.ID] = j
	a.byLease[msg.Lease] = j
	a.mu.Unlock()
	s.send(Accept{Lease: msg.Lease, JobID: msg.JobID, LocalID: st.ID,
		ResumedStep: int64(st.ResumedFrom)})
	a.watching.Add(1)
	go a.watch(j, a.released)
}

// handleAdopt re-binds a running local job to the fresh lease a
// reconciling gateway granted, then re-sends the latest keyframe so a
// gateway restarted from an older journal regains the newest resume
// point.
func (s *agentSession) handleAdopt(msg Adopt) {
	a := s.agent
	a.mu.Lock()
	j := a.inflight[msg.JobID]
	var kf []byte
	var kfStep int64
	if j != nil {
		if j.lease != 0 {
			delete(a.byLease, j.lease)
		}
		j.lease = msg.Lease
		a.byLease[msg.Lease] = j
		if len(j.kf) > 0 {
			kf = append([]byte(nil), j.kf...)
			kfStep = j.kfStep
		}
	}
	a.mu.Unlock()
	if j == nil {
		// Adopt for a job that finished in the meantime: its result is in
		// the outbox and was sent on this session — by deliver, or by the
		// flush if it finished before the session went live.
		return
	}
	a.Logf("fabric agent %s: job %s adopted under lease %d", a.Name, msg.JobID, msg.Lease)
	if kf != nil {
		s.send(Keyframe{Lease: msg.Lease, JobID: msg.JobID, Step: kfStep, Data: kf})
	}
}

// handleCancel cancels the local job behind a lease; the canceled
// report flows back through the watcher and the outbox.
func (s *agentSession) handleCancel(msg Cancel) {
	a := s.agent
	a.mu.Lock()
	j := a.byLease[msg.Lease]
	a.mu.Unlock()
	if j == nil {
		return
	}
	a.Svc.Cancel(j.localID)
}

// handleRelease drops a job the gateway no longer wants (re-routed
// elsewhere, canceled, or unknown after a journal loss): the local run
// is canceled and its eventual terminal state is discarded rather than
// put in the outbox.
func (s *agentSession) handleRelease(msg Release) {
	a := s.agent
	a.mu.Lock()
	j := a.inflight[msg.JobID]
	if j != nil {
		j.released = true
	}
	a.mu.Unlock()
	if j == nil {
		// Never ran here, or already terminal: drop any outbox entry too —
		// the gateway has declared it does not want this result.
		a.park.Remove(msg.JobID)
		return
	}
	a.Logf("fabric agent %s: job %s released by gateway; canceling local run", a.Name, msg.JobID)
	a.Svc.Cancel(j.localID)
}

// handleAck takes one acknowledged result out of the outbox; the
// drain counter moves only for a result that was parked, and only once.
func (s *agentSession) handleAck(msg ParkedAck) {
	if p := s.agent.park.Remove(msg.JobID); p != nil && !p.Live {
		s.agent.Svc.Metrics().ParkedDrained.Add(1)
	}
}

// watch streams one local job's progress to whatever gateway session is
// live, then delivers its terminal result. It is spawned once per job
// and survives any number of session turnovers. It ends early when the
// stopping agent has released and canceled every job (released closes):
// the job then only leaves the in-flight set, whether or not a stopped
// service ever ends it.
func (a *Agent) watch(j *agentJob, released <-chan struct{}) {
	defer a.watching.Done()
	ch, unsub, err := a.Svc.Subscribe(j.localID)
	if err == nil {
		defer unsub()
		for {
			var p service.Progress
			open := false
			select {
			case p, open = <-ch:
			case <-released:
				a.deliver(j, "", "", nil) // j.released: only leaves the in-flight set
				return
			}
			if !open {
				break
			}
			st, err := a.Svc.Get(j.localID)
			if err != nil {
				break
			}
			pj, err := json.Marshal(p)
			if err != nil {
				continue
			}
			a.mu.Lock()
			lease, sess := j.lease, a.sess
			a.mu.Unlock()
			if sess == nil || lease == 0 {
				continue // gateway away; progress resumes after adoption
			}
			sess.send(Update{Lease: lease, JobID: j.gwID, State: string(st.State), ProgressJSON: pj})
		}
	}

	st, err := a.Svc.Get(j.localID)
	var state, errMsg string
	var result []byte
	switch {
	case err != nil:
		state, errMsg = string(service.StateFailed), fmt.Sprintf("local job vanished: %v", err)
	case st.State == service.StateDone:
		res, err := a.Svc.Result(j.localID)
		if err != nil {
			state, errMsg = string(service.StateFailed), fmt.Sprintf("fetching local result: %v", err)
			break
		}
		rj, err := json.Marshal(res)
		if err != nil {
			state, errMsg = string(service.StateFailed), fmt.Sprintf("encoding result: %v", err)
			break
		}
		state, result = string(service.StateDone), rj
	case st.State == service.StateCanceled:
		state = string(service.StateCanceled)
	default:
		state, errMsg = string(service.StateFailed), st.Error
	}
	a.deliver(j, state, errMsg, result)
}

// deliver puts a terminal result the gateway still wants in the outbox
// and sends it at once when a session is live; otherwise the next
// session's flush sends it. The job leaves the in-flight set either way:
// it is finished locally, and redelivery flows from the outbox, not from
// re-running. The session is read after the put, so a session that goes
// live in between flushes this entry or is seen here.
func (a *Agent) deliver(j *agentJob, state, errMsg string, result []byte) {
	a.mu.Lock()
	delete(a.inflight, j.gwID)
	delete(a.byLocal, j.localID)
	if j.lease != 0 {
		delete(a.byLease, j.lease)
	}
	released, live := j.released, a.sess != nil
	a.mu.Unlock()
	if released {
		return
	}
	p := &parkedResult{JobID: j.gwID, State: state, Err: errMsg, Result: result, Live: live}
	if err := a.park.Put(p); err != nil {
		a.Logf("fabric agent %s: spooling result for job %s: %v", a.Name, j.gwID, err)
	}
	if !live {
		a.Svc.Metrics().ResultsParked.Add(1)
		a.Logf("fabric agent %s: gateway unreachable; parked %s result for job %s", a.Name, state, j.gwID)
	}
	a.mu.Lock()
	sess := a.sess
	a.mu.Unlock()
	if sess != nil {
		sess.send(p.report())
	}
}

// send writes one control frame through the session's Live, the one
// write path on its conn. A write has no deadline of its own: a gateway
// that stops reading stops answering pings, and the keeper closes the
// conn, which fails the write.
func (s *agentSession) send(payload any) error {
	buf, err := encodeControl(payload)
	if err != nil {
		return err
	}
	return s.live.Write(buf)
}

// close tears the session down. Local jobs KEEP RUNNING: the gateway
// (or its restarted successor) adopts them on the next session, and
// anything that finishes in between waits in the outbox. Only an agent
// stop cancels local work.
func (s *agentSession) close() {
	close(s.gone)
	a := s.agent
	a.mu.Lock()
	if a.sess == s {
		a.sess = nil
	}
	// Leases die with the session; adoption re-issues them.
	for _, j := range a.inflight {
		if j.lease != 0 {
			delete(a.byLease, j.lease)
			j.lease = 0
		}
	}
	a.mu.Unlock()
}
