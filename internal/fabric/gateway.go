package fabric

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
)

// Errors surfaced by the gateway API layer.
var (
	// ErrNotFound is returned for unknown gateway job IDs.
	ErrNotFound = errors.New("fabric: no such job")
	// ErrNotDone is returned by Result for jobs that have not completed.
	ErrNotDone = errors.New("fabric: job has not completed")
	// ErrShuttingDown is returned by Submit after Close begins.
	ErrShuttingDown = errors.New("fabric: gateway shutting down")
	// ErrTerminal is returned by Cancel for jobs already terminal.
	ErrTerminal = errors.New("fabric: job already terminal")
)

// RejectedError is a 429-class admission refusal: the tenant's token
// bucket is empty or the dispatch backlog is full. RetryAfter is the
// hint every such response must carry.
type RejectedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("fabric: tenant %q rejected: %s (retry after %v)", e.Tenant, e.Reason, e.RetryAfter)
}

// Options configures a Gateway.
type Options struct {
	// ControlAddr is the TCP address shards register on
	// (default 127.0.0.1:0).
	ControlAddr string
	// LeaseTTL is how long a shard may stay silent before the gateway
	// declares it dead and re-routes its leased jobs (default 10s).
	LeaseTTL time.Duration
	// Heartbeat is the ping interval advertised to shards
	// (default LeaseTTL/4).
	Heartbeat time.Duration
	// MaxPending bounds jobs admitted but not yet leased; beyond it
	// submissions are rejected 429 (default 1024).
	MaxPending int
	// CacheEntries bounds the result cache (default 4096).
	CacheEntries int
	// RouteRetries caps how many times one job may be re-routed after
	// shard faults before it fails (default 8).
	RouteRetries int
	// TenantRate/TenantBurst are the default token-bucket parameters
	// per tenant (defaults 50/s and 100).
	TenantRate  float64
	TenantBurst float64
	// Tenants overrides admission policy per tenant name.
	Tenants map[string]TenantConfig
	// JournalPath, when set, makes the gateway crash-restartable: every
	// submission, admission decision, lease, cancel, completion, and
	// replicated keyframe is appended to a CRC-framed write-ahead
	// journal at this path, and a gateway restarted on the same path
	// replays it — re-queueing pending jobs and reconciling leased ones
	// with their shards instead of losing them. Empty disables
	// journaling (the pre-HA behavior).
	JournalPath string
	// ReconcileWindow is how long a restarted gateway holds journaled
	// leases out of the dispatch queue waiting for their shards to
	// reconnect and report them. Jobs reported within the window are
	// adopted in place (no re-route, no double execution); jobs whose
	// shard never returns are re-queued, seeded from their journaled
	// keyframe (default LeaseTTL).
	ReconcileWindow time.Duration
	// Chaos, when set, wraps every accepted shard connection in a
	// transport.FaultConn so the PR-4 fault taxonomy (drop, dup, delay,
	// corrupt, partition) applies to the fabric control plane. Drills
	// and tests only.
	Chaos *transport.FaultPlan
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// Now substitutes a fake clock in tests (default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.ControlAddr == "" {
		o.ControlAddr = "127.0.0.1:0"
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 4
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1024
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.RouteRetries <= 0 {
		o.RouteRetries = 8
	}
	if o.TenantRate <= 0 {
		o.TenantRate = 50
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 100
	}
	if o.ReconcileWindow <= 0 {
		o.ReconcileWindow = o.LeaseTTL
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// GwJob is one job tracked by the gateway. Guarded by the gateway
// mutex; external packages read Status snapshots.
type GwJob struct {
	ID      string
	Tenant  string
	Spec    service.JobSpec
	Key     string // canonical cache key
	created time.Time

	specJSON  []byte
	state     service.State
	errMsg    string
	cached    bool
	coalesced bool
	retries   int

	// cancelRequested marks a leased job whose Cancel was forwarded to
	// its shard: if that shard dies before acknowledging, the job is
	// finished canceled instead of re-routed, and new submissions must
	// not coalesce onto it.
	cancelRequested bool

	// Lease bookkeeping: which shard holds the job under which lease,
	// and the shard-local job ID (for Cancel).
	lease   uint64
	shard   *shardConn
	localID string

	// Keyframe replication: the latest frame-store keyframe streamed back
	// by the job's shard, carried out with the next Assign after a
	// re-route so the replacement shard resumes mid-run. resumedStep is
	// what the current shard reported actually restoring (0 = scratch).
	// framesAddr is the HTTP address of the shard that ran (or runs) the
	// job — unlike the lease it survives completion, so the frames
	// replay proxy still has a target after Done clears the shard.
	keyframe     []byte
	keyframeStep int64
	resumedStep  int
	framesAddr   string

	finishTag float64 // WFQ virtual finish time
	progress  json.RawMessage
	result    json.RawMessage

	// recoverBy, when non-zero, marks a job in the reconciliation set:
	// it held a lease when the gateway (or its shard session) went away,
	// it is NOT in any dispatch queue, and it waits for its shard to
	// reconnect and report it. Past the deadline the watchdog re-queues
	// it, seeded from its journaled keyframe.
	recoverBy time.Time

	// followers are identical in-flight submissions coalesced onto this
	// job; they complete when it does.
	followers []*GwJob
}

// GwStatus is the JSON form of a gateway job.
type GwStatus struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Key       string          `json:"key"`
	State     service.State   `json:"state"`
	Error     string          `json:"error,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Shard     string          `json:"shard,omitempty"`
	Retries   int             `json:"retries,omitempty"`
	Created   time.Time       `json:"created"`
	Spec      service.JobSpec `json:"spec"`
	Progress  json.RawMessage `json:"progress,omitempty"`
	// ResumedStep is the completed-step count the job's current shard
	// restored from a replicated keyframe after a re-route; 0 means the
	// run started (or re-started) from scratch.
	ResumedStep int `json:"resumed_step,omitempty"`
}

// ShardStatus is one row of the fleet view.
type ShardStatus struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	HTTPAddr string `json:"http_addr,omitempty"`
	Capacity int    `json:"capacity"`
	Leases   int    `json:"leases"`
	Routed   int64  `json:"routed_total"`
}

// shardConn is one registered shard's control-plane session.
type shardConn struct {
	id       int
	name     string
	httpAddr string
	capacity int
	conn     net.Conn
	sendq    chan []byte
	leases   map[uint64]*GwJob
	lastSeen atomic.Int64 // unix nanos of last inbound frame
	failed   atomic.Bool
}

// Gateway routes jobs across registered shards. Construct with
// NewGateway, stop with Close.
type Gateway struct {
	opt     Options
	ln      net.Listener
	metrics *Metrics

	mu       sync.Mutex
	shards   map[int]*shardConn
	ring     *Ring
	jobs     map[string]*GwJob
	order    []string
	tenants  map[string]*tenant
	inflight map[string]*GwJob // cache key → live leader job
	cache    *Cache
	pending  int
	vtime    float64

	// Crash safety: the write-ahead journal (nil when disabled) and the
	// reconciliation set — journaled leases awaiting their shard's
	// report after a restart or session replacement, keyed by job ID.
	journal    *Journal
	recovering map[string]*GwJob
	started    time.Time
	reconciled bool // reconcile_seconds recorded

	nextShard int
	nextLease atomic.Uint64

	stopping chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewGateway opens the control listener and starts the lease watchdog.
func NewGateway(opt Options) (*Gateway, error) {
	opt = opt.withDefaults()
	ln, err := net.Listen("tcp", opt.ControlAddr)
	if err != nil {
		return nil, fmt.Errorf("fabric: gateway listen %s: %w", opt.ControlAddr, err)
	}
	g := &Gateway{
		opt:        opt,
		ln:         ln,
		metrics:    NewMetrics(opt.Now()),
		shards:     make(map[int]*shardConn),
		ring:       NewRing(nil),
		jobs:       make(map[string]*GwJob),
		tenants:    make(map[string]*tenant),
		inflight:   make(map[string]*GwJob),
		cache:      NewCache(opt.CacheEntries),
		recovering: make(map[string]*GwJob),
		started:    opt.Now(),
		reconciled: true, // restore() reopens the window if leases replay
		stopping:   make(chan struct{}),
	}
	if opt.JournalPath != "" {
		jl, st, err := OpenJournal(opt.JournalPath)
		if err != nil {
			ln.Close()
			return nil, err
		}
		g.journal = jl
		g.metrics.JournalBytes.Store(jl.Size())
		if st != nil {
			g.restore(st)
		}
	}
	g.wg.Add(2)
	go g.acceptLoop()
	go g.watchdog()
	return g, nil
}

// restore rebuilds gateway state from a replayed journal: every job is
// re-registered, done results repopulate the cache, pending jobs rejoin
// their tenants' WFQ queues, and jobs that held a lease at the crash
// enter the reconciliation set — held out of dispatch until their shard
// reconnects and reports them or the reconcile window expires.
func (g *Gateway) restore(st *JournalState) {
	now := g.opt.Now()
	g.vtime = st.VTime
	g.nextLease.Store(st.NextLease)
	for _, jt := range st.Tenants {
		t := &tenant{
			name:       jt.Name,
			weight:     jt.Weight,
			bucket:     NewTokenBucket(jt.Rate, jt.Burst, now),
			lastFinish: jt.LastFinish,
		}
		if t.weight <= 0 {
			t.weight = 1
		}
		t.bucket.tokens = jt.Tokens
		g.tenants[jt.Name] = t
	}
	// Each job first journaled after the last snapshot consumed a quota
	// token the snapshot's bucket level does not reflect; debit them so a
	// crash-restart loop cannot be used to refill a tenant's bucket.
	for name, n := range st.Admissions {
		b := g.tenantFor(name).bucket
		b.tokens -= float64(n)
		if b.tokens < 0 {
			b.tokens = 0
		}
	}
	var leased, queued, terminal int
	for _, id := range st.Order {
		rec := st.Jobs[id]
		j := &GwJob{
			ID:              rec.ID,
			Tenant:          rec.Tenant,
			Key:             rec.Key,
			created:         rec.Created,
			specJSON:        append([]byte(nil), rec.SpecJSON...),
			state:           service.State(rec.State),
			errMsg:          rec.Error,
			cached:          rec.Cached,
			coalesced:       rec.Coalesced,
			retries:         rec.Retries,
			cancelRequested: rec.CancelRequested,
			localID:         rec.LocalID,
			keyframeStep:    rec.KeyframeStep,
			resumedStep:     rec.ResumedStep,
			framesAddr:      rec.FramesAddr,
			finishTag:       rec.FinishTag,
			result:          append(json.RawMessage(nil), rec.Result...),
		}
		if len(rec.SpecJSON) > 0 {
			json.Unmarshal(rec.SpecJSON, &j.Spec)
		}
		if kf, ok := st.Keyframes[id]; ok {
			j.keyframe = append([]byte(nil), kf.Data...)
			if kf.Step > j.keyframeStep {
				j.keyframeStep = kf.Step
			}
		}
		g.jobs[id] = j
		g.order = append(g.order, id)
		if j.state.Terminal() {
			terminal++
			if j.state == service.StateDone && len(j.result) > 0 && !j.cached {
				g.cache.Put(j.Key, j.result, j.ID)
			}
			continue
		}
	}
	// Second pass (jobs map complete): re-link coalesced followers, then
	// sort live leaders into the reconciliation set or the WFQ queues.
	for _, id := range st.Order {
		j := g.jobs[id]
		rec := st.Jobs[id]
		if j.state.Terminal() {
			continue
		}
		if j.coalesced {
			if leader, ok := g.jobs[rec.LeaderID]; ok && !leader.state.Terminal() {
				leader.followers = append(leader.followers, j)
				j.state = leader.state
				continue
			}
			// Leader gone or terminal without us: treat as failed rather
			// than resurrect a duplicate run.
			j.state = service.StateFailed
			j.errMsg = "journal replay: coalesced leader lost"
			continue
		}
		g.inflight[j.Key] = j
		if (rec.Lease != 0 && rec.Shard != "") || rec.Recovering {
			// Held a lease at the crash (or already sat in the previous
			// incarnation's reconciliation set): its shard may still be
			// running it. Hold it for reconciliation instead of
			// re-dispatching — re-routing now would double-execute the job.
			j.state = service.StateRunning
			j.recoverBy = now.Add(g.opt.ReconcileWindow)
			g.recovering[id] = j
			leased++
			continue
		}
		// Admitted but never leased: straight back to its tenant's queue
		// with its journaled finish tag.
		j.state = service.StateQueued
		g.tenantFor(j.Tenant).queue = append(g.tenantFor(j.Tenant).queue, j)
		g.pending++
		g.metrics.JobsPending.Add(1)
		queued++
	}
	for _, t := range g.tenants {
		q := t.queue
		sort.Slice(q, func(i, k int) bool { return q[i].finishTag < q[k].finishTag })
	}
	g.reconciled = len(g.recovering) == 0 // gauge stays 0 when nothing to reconcile
	g.opt.Logf("nbodygw: journal replayed %d job(s): %d awaiting shard reconciliation, %d re-queued, %d terminal",
		len(g.order), leased, queued, terminal)
}

// ControlAddr returns the address shards register on.
func (g *Gateway) ControlAddr() string { return g.ln.Addr().String() }

// Metrics exposes the gateway counters.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Close stops the control plane: no new registrations, a graceful Bye
// to every shard, and the watchdog stopped. In-flight gateway jobs are
// left as-is (shards keep running them; nothing is awaiting results).
func (g *Gateway) Close() error {
	g.stopOnce.Do(func() { close(g.stopping) })
	g.ln.Close()
	g.mu.Lock()
	conns := make([]*shardConn, 0, len(g.shards))
	for _, sc := range g.shards {
		conns = append(conns, sc)
	}
	g.mu.Unlock()
	bye, _ := transport.AppendControl(nil, transport.KindBye, nil)
	for _, sc := range conns {
		sc.conn.SetWriteDeadline(time.Now().Add(time.Second))
		sc.conn.Write(bye)
		sc.conn.Close()
	}
	g.wg.Wait()
	g.mu.Lock()
	err := g.journal.Close()
	g.journal = nil
	g.mu.Unlock()
	return err
}

// journalJobLocked appends j's full current state to the journal.
// Requires g.mu.
func (g *Gateway) journalJobLocked(j *GwJob) {
	if g.journal != nil {
		g.journaledLocked("job", j.ID, g.journal.AppendJob(g.jobRecordLocked(j)))
	}
}

// journalKeyframeLocked appends a job's latest replicated keyframe as
// its own record so the (large) frame bytes are not re-written with
// every job-state transition. Requires g.mu.
func (g *Gateway) journalKeyframeLocked(j *GwJob) {
	if g.journal != nil {
		g.journaledLocked("keyframe", j.ID, g.journal.AppendKeyframe(j.ID, j.keyframeStep, j.keyframe))
	}
}

// journaledLocked is the tail of every journal append: it compacts the
// log when it outgrows its snapshot budget and refreshes the size gauge.
// Journal write errors are logged, not fatal: the gateway stays
// available and degrades to pre-HA (in-memory) behavior for the record
// it could not write.
func (g *Gateway) journaledLocked(what, id string, err error) {
	if err != nil {
		g.opt.Logf("nbodygw: journal append (%s %s): %v", what, id, err)
	}
	if g.journal.ShouldCompact() {
		if err := g.journal.Compact(g.snapshotLocked()); err != nil {
			g.opt.Logf("nbodygw: journal compaction: %v", err)
		}
	}
	g.metrics.JournalBytes.Store(g.journal.Size())
}

// jobRecordLocked builds the durable form of one job.
func (g *Gateway) jobRecordLocked(j *GwJob) *journalJob {
	rec := &journalJob{
		ID:              j.ID,
		Tenant:          j.Tenant,
		Key:             j.Key,
		SpecJSON:        j.specJSON,
		Created:         j.created,
		State:           string(j.state),
		Error:           j.errMsg,
		Cached:          j.cached,
		Coalesced:       j.coalesced,
		Retries:         j.retries,
		CancelRequested: j.cancelRequested,
		Lease:           j.lease,
		LocalID:         j.localID,
		KeyframeStep:    j.keyframeStep,
		ResumedStep:     j.resumedStep,
		FramesAddr:      j.framesAddr,
		FinishTag:       j.finishTag,
		Result:          j.result,
		Recovering:      !j.recoverBy.IsZero(),
	}
	if len(rec.SpecJSON) == 0 {
		rec.SpecJSON, _ = json.Marshal(j.Spec)
	}
	if j.shard != nil {
		rec.Shard = j.shard.name
	}
	if j.coalesced {
		if leader, ok := g.inflight[j.Key]; ok && leader != j {
			rec.LeaderID = leader.ID
		}
	}
	return rec
}

// snapshotLocked captures the full replayable state for compaction.
func (g *Gateway) snapshotLocked() *journalSnapshot {
	snap := &journalSnapshot{
		Order:     append([]string(nil), g.order...),
		VTime:     g.vtime,
		NextLease: g.nextLease.Load(),
	}
	for _, id := range g.order {
		j := g.jobs[id]
		snap.Jobs = append(snap.Jobs, *g.jobRecordLocked(j))
		if len(j.keyframe) > 0 && !j.state.Terminal() {
			snap.Keyframes = append(snap.Keyframes,
				journalKeyframe{ID: j.ID, Step: j.keyframeStep, Data: j.keyframe})
		}
	}
	for name, t := range g.tenants {
		snap.Tenants = append(snap.Tenants, journalTenant{
			Name:       name,
			Weight:     t.weight,
			Rate:       t.bucket.Rate,
			Burst:      t.bucket.Burst,
			Tokens:     t.bucket.tokens,
			LastFinish: t.lastFinish,
		})
	}
	sort.Slice(snap.Tenants, func(i, k int) bool { return snap.Tenants[i].Name < snap.Tenants[k].Name })
	return snap
}

// acceptLoop admits shard registrations until Close.
func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		c, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.wg.Add(1)
		go func(c net.Conn) {
			defer g.wg.Done()
			g.serveShard(c)
		}(c)
	}
}

// serveShard runs one shard session: Hello handshake, then the control
// pump until the connection dies.
func (g *Gateway) serveShard(c net.Conn) {
	if g.opt.Chaos != nil {
		c = transport.NewFaultConn(c, *g.opt.Chaos)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, body, err := transport.ReadRaw(c)
	if err != nil || kind != transport.KindHost {
		c.Close()
		return
	}
	v, err := transport.Unmarshal(body)
	hello, ok := v.(Hello)
	if err != nil || !ok {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})

	sc := &shardConn{
		name:     hello.Name,
		httpAddr: hello.HTTPAddr,
		capacity: int(hello.Capacity),
		conn:     c,
		sendq:    make(chan []byte, 1024),
		leases:   make(map[uint64]*GwJob),
	}
	if sc.capacity < 1 {
		sc.capacity = 1
	}
	sc.lastSeen.Store(time.Now().UnixNano())

	g.mu.Lock()
	// A reconnecting shard replaces its old session. The stale session's
	// leases are NOT re-routed: the shard is alive (it just dialed us)
	// and is still running them, so they move to the reconciliation set
	// and the fresh session's ReportJobs re-binds them in place. Only if
	// the report never mentions them does the window expiry re-queue.
	var stale *shardConn
	for _, prev := range g.shards {
		if prev.name == sc.name {
			stale = prev
			break
		}
	}
	if stale != nil {
		if g.shardSupersededLocked(stale) {
			g.opt.Logf("nbodygw: shard %s re-registered; awaiting lease report from fresh session", sc.name)
		}
	}
	g.mu.Unlock()

	g.mu.Lock()
	sc.id = g.nextShard
	g.nextShard++
	g.shards[sc.id] = sc
	g.rebuildRingLocked()
	g.metrics.Shards.Store(int64(len(g.shards)))
	welcome := Welcome{
		ShardID:         int32(sc.id),
		LeaseTTLMillis:  g.opt.LeaseTTL.Milliseconds(),
		HeartbeatMillis: g.opt.Heartbeat.Milliseconds(),
	}
	g.mu.Unlock()
	g.opt.Logf("nbodygw: shard %d (%s) registered, capacity %d", sc.id, sc.name, sc.capacity)

	// Writer drains the send queue; a write error fails the shard.
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			select {
			case buf, ok := <-sc.sendq:
				if !ok {
					return
				}
				if _, err := sc.conn.Write(buf); err != nil {
					g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultPeerLost, Proc: sc.id,
						Err: fmt.Errorf("write to shard %s: %w", sc.name, err)})
					return
				}
			case <-g.stopping:
				return
			}
		}
	}()
	if !g.send(sc, welcome) {
		return
	}
	// New capacity may unblock pending work.
	g.mu.Lock()
	g.dispatchLocked()
	g.mu.Unlock()

	for {
		kind, body, err := transport.ReadRaw(c)
		if err != nil {
			g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultPeerLost, Proc: sc.id,
				Err: fmt.Errorf("read from shard %s: %w", sc.name, err)})
			return
		}
		sc.lastSeen.Store(time.Now().UnixNano())
		switch kind {
		case transport.KindBye:
			g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultClosed, Proc: sc.id,
				Err: fmt.Errorf("shard %s closed gracefully", sc.name)})
			return
		case transport.KindHost:
			v, err := transport.Unmarshal(body)
			if err != nil {
				g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultCorrupt, Proc: sc.id,
					Err: fmt.Errorf("bad control frame from shard %s: %w", sc.name, err)})
				return
			}
			g.handleControl(sc, v)
		default:
			// Unknown kinds are skipped for forward compatibility.
		}
	}
}

// errSendQueueFull distinguishes a stalled shard (fail the shard) from
// an encoding error (fail the one message) in enqueue's return.
var errSendQueueFull = errors.New("fabric: shard send queue full")

// enqueue encodes one control message and offers it to the shard's send
// queue without blocking and without touching g.mu, so it is safe from
// both locked and unlocked call sites.
func (g *Gateway) enqueue(sc *shardConn, payload any) error {
	buf, err := encodeControl(payload)
	if err != nil {
		return err
	}
	select {
	case sc.sendq <- buf:
		return nil
	default:
		return errSendQueueFull
	}
}

// send enqueues one control message to a shard without blocking the
// caller; a full queue means the shard has stalled and is failed.
// Must be called WITHOUT g.mu held — locked paths (dispatchLocked) use
// enqueue + shardFailedLocked directly.
func (g *Gateway) send(sc *shardConn, payload any) bool {
	err := g.enqueue(sc, payload)
	switch {
	case err == nil:
		return true
	case errors.Is(err, errSendQueueFull):
		g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultStall, Proc: sc.id,
			Err: fmt.Errorf("shard %s send queue full", sc.name)})
	default:
		g.opt.Logf("nbodygw: encoding control message for shard %s: %v", sc.name, err)
	}
	return false
}

// handleControl dispatches one inbound shard message.
func (g *Gateway) handleControl(sc *shardConn, v any) {
	switch msg := v.(type) {
	case Ping:
		g.send(sc, Pong{Nanos: msg.Nanos})
	case Pong:
		// Traffic already renewed the lease via lastSeen.
	case Accept:
		g.handleAccept(sc, msg)
	case Update:
		g.handleUpdate(sc, msg)
	case Done:
		g.handleDone(sc, msg)
	case Keyframe:
		g.handleKeyframe(sc, msg)
	case ReportJobs:
		g.handleReport(sc, msg)
	case Parked:
		g.handleParked(sc, msg)
	default:
		g.opt.Logf("nbodygw: unexpected control message %T from shard %s", v, sc.name)
	}
}

// handleAccept records the shard's admission verdict. A refusal
// re-queues the job: the gateway respects shard capacity, so a refusal
// means the shard is unhealthy or misconfigured, which routing treats
// like a fault.
func (g *Gateway) handleAccept(sc *shardConn, msg Accept) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := sc.leases[msg.Lease]
	if j == nil || j.lease != msg.Lease {
		return // stale: the job was re-routed already
	}
	if msg.Err == "" {
		j.localID = msg.LocalID
		j.framesAddr = sc.httpAddr
		j.resumedStep = int(msg.ResumedStep)
		if msg.ResumedStep > 0 {
			g.metrics.JobsResumedFromFrame.Add(1)
			g.opt.Logf("nbodygw: shard %s resumed job %s from keyframe step %d", sc.name, j.ID, msg.ResumedStep)
		}
		g.journalJobLocked(j)
		return
	}
	g.opt.Logf("nbodygw: shard %s refused job %s: %s", sc.name, j.ID, msg.Err)
	g.requeueLocked(j, "admission")
	g.dispatchLocked()
}

// handleKeyframe stores the latest replicated keyframe for a leased
// job. Only the newest frame matters — resume wants the furthest safe
// restart point — so each arrival replaces the last.
func (g *Gateway) handleKeyframe(sc *shardConn, msg Keyframe) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := sc.leases[msg.Lease]
	if j == nil || j.lease != msg.Lease {
		return // stale: the job was re-routed already
	}
	if msg.Step <= j.keyframeStep && j.keyframe != nil {
		return // out-of-order replication; keep the newer frame
	}
	j.keyframe = append([]byte(nil), msg.Data...)
	j.keyframeStep = msg.Step
	g.metrics.KeyframesReplicated.Add(1)
	g.journalKeyframeLocked(j)
}

// handleUpdate forwards a progress snapshot onto the gateway job.
func (g *Gateway) handleUpdate(sc *shardConn, msg Update) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := sc.leases[msg.Lease]
	if j == nil || j.lease != msg.Lease {
		return
	}
	if s := service.State(msg.State); s == service.StateQueued || s == service.StateRunning {
		j.state = s
	}
	j.progress = append(json.RawMessage(nil), msg.ProgressJSON...)
	for _, f := range j.followers {
		f.state = j.state
		f.progress = j.progress
	}
}

// handleDone finalizes a leased job: cache the result, complete the
// leader and every coalesced follower, release the lease.
func (g *Gateway) handleDone(sc *shardConn, msg Done) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := sc.leases[msg.Lease]
	if j == nil || j.lease != msg.Lease {
		return
	}
	delete(sc.leases, msg.Lease)
	g.metrics.JobsLeased.Add(-1)
	// A cancel-requested leader may have been replaced in the inflight
	// index by a fresh leader for the same key; only clear our own entry.
	if g.inflight[j.Key] == j {
		delete(g.inflight, j.Key)
	}
	j.lease, j.shard = 0, nil

	g.settleLocked(j, msg.State, msg.ResultJSON, msg.Err)
	g.dispatchLocked()
}

// settleLocked lands a shard's terminal report on j and its followers: a
// done result is cached first; anything but done or canceled is a
// failure.
func (g *Gateway) settleLocked(j *GwJob, state string, resultJSON []byte, errMsg string) {
	switch service.State(state) {
	case service.StateDone:
		res := append(json.RawMessage(nil), resultJSON...)
		g.cache.Put(j.Key, res, j.ID)
		g.finishLocked(j, service.StateDone, res, "")
	case service.StateCanceled:
		g.finishLocked(j, service.StateCanceled, nil, "")
	default:
		g.finishLocked(j, service.StateFailed, nil, errMsg)
	}
}

// handleReport reconciles a shard's in-flight leases after it (or the
// gateway) restarted. Each reported job the gateway still wants — known,
// non-terminal, not leased elsewhere — is adopted: re-bound to this
// session under a fresh lease, exactly where it was running, so a
// gateway crash or connection blip never re-executes completed steps.
// Everything else is released: the shard cancels its local copy.
func (g *Gateway) handleReport(sc *shardConn, msg ReportJobs) {
	g.mu.Lock()
	adopted := 0
	for _, item := range msg.Jobs {
		j := g.jobs[item.JobID]
		switch {
		case j == nil || j.state.Terminal():
			g.enqueue(sc, Release{JobID: item.JobID, LocalID: item.LocalID})
		case j.shard == sc:
			// Duplicate report on the live session; the lease stands.
		case j.shard != nil:
			// Already re-routed to another live shard; that copy wins and
			// this one stops burning cycles.
			g.enqueue(sc, Release{JobID: j.ID, LocalID: item.LocalID})
		case j.cancelRequested:
			// A cancel raced the outage; honor it instead of adopting.
			g.enqueue(sc, Release{JobID: j.ID, LocalID: item.LocalID})
			delete(g.recovering, j.ID)
			j.recoverBy = time.Time{}
			if g.inflight[j.Key] == j {
				delete(g.inflight, j.Key)
			}
			g.finishLocked(j, service.StateCanceled, nil, "")
		default:
			// Recovering (journaled lease) or re-queued but not yet
			// dispatched: adopt in place.
			if _, ok := g.recovering[j.ID]; ok {
				delete(g.recovering, j.ID)
				j.recoverBy = time.Time{}
			} else if g.tenantFor(j.Tenant).removeQueued(j) {
				g.pending--
				g.metrics.JobsPending.Add(-1)
			}
			lease := g.nextLease.Add(1)
			j.lease, j.shard, j.localID = lease, sc, item.LocalID
			j.state = service.StateRunning
			j.framesAddr = sc.httpAddr
			sc.leases[lease] = j
			g.metrics.JobsLeased.Add(1)
			g.metrics.JobsAdopted.Add(1)
			g.journalJobLocked(j)
			g.enqueue(sc, Adopt{Lease: lease, JobID: j.ID, LocalID: item.LocalID})
			adopted++
		}
	}
	g.finishReconcileLocked(g.opt.Now())
	g.mu.Unlock()
	if len(msg.Jobs) > 0 {
		g.opt.Logf("nbodygw: shard %s reported %d in-flight job(s), adopted %d", sc.name, len(msg.Jobs), adopted)
	}
}

// handleParked lands a terminal result that completed while the gateway
// was unreachable. It is addressed by gateway job ID (no live lease
// exists) and acknowledged unconditionally so the shard's spooled copy
// is deleted even on redelivery.
func (g *Gateway) handleParked(sc *shardConn, msg Parked) {
	g.mu.Lock()
	j := g.jobs[msg.JobID]
	if j != nil && !j.state.Terminal() {
		// Free whatever slot the job occupies: a reconciliation entry, a
		// re-queued backlog slot, or a duplicate lease on another shard
		// (which is canceled — this result already won).
		delete(g.recovering, j.ID)
		j.recoverBy = time.Time{}
		if g.tenantFor(j.Tenant).removeQueued(j) {
			g.pending--
			g.metrics.JobsPending.Add(-1)
		}
		if j.shard != nil {
			g.enqueue(j.shard, Cancel{Lease: j.lease, JobID: j.ID})
			delete(j.shard.leases, j.lease)
			g.metrics.JobsLeased.Add(-1)
			j.lease, j.shard = 0, nil
		}
		if g.inflight[j.Key] == j {
			delete(g.inflight, j.Key)
		}
		g.settleLocked(j, msg.State, msg.ResultJSON, msg.Err)
		g.metrics.ParkedResults.Add(1)
		g.finishReconcileLocked(g.opt.Now())
		g.dispatchLocked()
	}
	g.enqueue(sc, ParkedAck{JobID: msg.JobID})
	g.mu.Unlock()
}

// finishReconcileLocked records the reconcile_seconds gauge once the
// restart reconciliation set drains — by adoption, parked delivery, or
// timeout re-queue.
func (g *Gateway) finishReconcileLocked(now time.Time) {
	if g.reconciled || len(g.recovering) > 0 {
		return
	}
	g.reconciled = true
	g.metrics.SetReconcileSeconds(now.Sub(g.started).Seconds())
	g.opt.Logf("nbodygw: restart reconciliation complete in %v", now.Sub(g.started).Round(time.Millisecond))
}

// finishLocked moves a job and its followers to a terminal state.
func (g *Gateway) finishLocked(j *GwJob, state service.State, result json.RawMessage, errMsg string) {
	all := append([]*GwJob{j}, j.followers...)
	j.followers = nil
	for _, job := range all {
		if job.state.Terminal() {
			continue
		}
		job.state = state
		job.result = result
		job.errMsg = errMsg
		switch state {
		case service.StateDone:
			g.metrics.JobsDone.Add(1)
		case service.StateCanceled:
			g.metrics.JobsCanceled.Add(1)
		default:
			g.metrics.JobsFailed.Add(1)
		}
		g.journalJobLocked(job)
	}
}

// requeueLocked puts a leased (or about-to-be-leased) job back at the
// front of its tenant's backlog after a routing failure, preserving its
// WFQ tag. Beyond the route-retry budget the job fails instead.
func (g *Gateway) requeueLocked(j *GwJob, fault string) {
	if j.shard != nil {
		delete(j.shard.leases, j.lease)
		g.metrics.JobsLeased.Add(-1)
	}
	j.lease, j.shard, j.localID = 0, nil, ""
	if j.cancelRequested {
		// The caller asked for a cancel the dead shard never
		// acknowledged; honor it now instead of resurrecting the job.
		if g.inflight[j.Key] == j {
			delete(g.inflight, j.Key)
		}
		g.finishLocked(j, service.StateCanceled, nil, "")
		return
	}
	j.retries++
	g.metrics.Rerouted.Add(fault, 1)
	if j.retries > g.opt.RouteRetries {
		if g.inflight[j.Key] == j {
			delete(g.inflight, j.Key)
		}
		g.finishLocked(j, service.StateFailed,
			nil, fmt.Sprintf("re-routed %d times without completing (last fault: %s)", j.retries, fault))
		return
	}
	j.state = service.StateQueued
	j.progress = nil
	g.tenantFor(j.Tenant).requeueFront(j)
	g.pending++
	g.metrics.JobsPending.Add(1)
	g.journalJobLocked(j)
}

// shardFailed removes a shard from the fleet and re-routes every job it
// held a lease on. Must be called WITHOUT g.mu held; dispatchLocked
// reaches the same teardown via shardFailedLocked.
func (g *Gateway) shardFailed(sc *shardConn, terr *transport.TransportError) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shardFailedLocked(sc, terr) {
		g.dispatchLocked()
	}
}

// shardFailedLocked is the core of shardFailed: it requires g.mu, does
// not dispatch (callers do, so a failure inside dispatchLocked cannot
// recurse), and reports whether this call retired the session. The
// fault kind — the same taxonomy the cluster supervisor keys on — is
// what the re-route metric records. Idempotent per session.
func (g *Gateway) shardFailedLocked(sc *shardConn, terr *transport.TransportError) bool {
	select {
	case <-g.stopping:
		// The conn errors racing Close are the gateway's own teardown,
		// not shard faults. Re-routing here would journal the leases as
		// queued — a dying gateway must leave them leased on disk so
		// the restarted process holds them for reconciliation instead
		// of re-executing them.
		return false
	default:
	}
	if !sc.failed.CompareAndSwap(false, true) {
		return false
	}
	sc.conn.Close()
	delete(g.shards, sc.id)
	g.rebuildRingLocked()
	g.metrics.Shards.Store(int64(len(g.shards)))
	orphans := make([]*GwJob, 0, len(sc.leases))
	for _, j := range sc.leases {
		orphans = append(orphans, j)
	}
	// Deterministic re-queue order: oldest lease first.
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].lease < orphans[k].lease })
	for i := len(orphans) - 1; i >= 0; i-- { // requeueFront reverses: push newest first
		j := orphans[i]
		delete(sc.leases, j.lease)
		g.metrics.JobsLeased.Add(-1)
		j.shard = nil
		g.requeueLocked(j, terr.Kind.String())
	}
	select {
	case <-g.stopping:
	default:
		g.opt.Logf("nbodygw: shard %d (%s) lost (%s): %d job(s) re-routed",
			sc.id, sc.name, terr.Kind, len(orphans))
	}
	return true
}

// shardSupersededLocked retires a stale session whose shard just dialed
// a replacement connection. Unlike shardFailedLocked it does NOT
// re-route the leases: the shard is demonstrably alive and still
// running them, so re-dispatching now would double-execute. The jobs
// move to the reconciliation set; the fresh session's ReportJobs adopts
// them in place, and only a report that never mentions them lets the
// window expiry re-queue. Idempotent per session.
func (g *Gateway) shardSupersededLocked(sc *shardConn) bool {
	if !sc.failed.CompareAndSwap(false, true) {
		return false
	}
	sc.conn.Close()
	delete(g.shards, sc.id)
	g.rebuildRingLocked()
	g.metrics.Shards.Store(int64(len(g.shards)))
	now := g.opt.Now()
	for lease, j := range sc.leases {
		delete(sc.leases, lease)
		g.metrics.JobsLeased.Add(-1)
		j.lease, j.shard, j.localID = 0, nil, ""
		if j.cancelRequested {
			// The cancel the stale session never acknowledged wins; the
			// fresh session's report gets a Release for it.
			if g.inflight[j.Key] == j {
				delete(g.inflight, j.Key)
			}
			g.finishLocked(j, service.StateCanceled, nil, "")
			continue
		}
		j.recoverBy = now.Add(g.opt.ReconcileWindow)
		g.recovering[j.ID] = j
		g.reconciled = false
		g.journalJobLocked(j)
	}
	return true
}

// rebuildRingLocked recomputes the hash ring from the live shard set.
func (g *Gateway) rebuildRingLocked() {
	names := make(map[int]string, len(g.shards))
	for id, sc := range g.shards {
		names[id] = sc.name
	}
	g.ring = NewRing(names)
}

// watchdog expires leases: a shard silent past the TTL is declared dead
// with a heartbeat fault, exactly as the transport layer classifies a
// silent peer.
func (g *Gateway) watchdog() {
	defer g.wg.Done()
	tick := g.opt.LeaseTTL / 4
	if g.opt.ReconcileWindow/4 < tick {
		tick = g.opt.ReconcileWindow / 4
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.stopping:
			return
		case <-t.C:
		}
		now := time.Now()
		g.mu.Lock()
		var expired []*shardConn
		for _, sc := range g.shards {
			if now.Sub(time.Unix(0, sc.lastSeen.Load())) > g.opt.LeaseTTL {
				expired = append(expired, sc)
			}
		}
		g.mu.Unlock()
		for _, sc := range expired {
			idle := now.Sub(time.Unix(0, sc.lastSeen.Load())).Round(time.Millisecond)
			g.shardFailed(sc, &transport.TransportError{Kind: transport.FaultHeartbeat, Proc: sc.id,
				Err: fmt.Errorf("shard %s silent for %v (lease TTL %v)", sc.name, idle, g.opt.LeaseTTL)})
		}
		g.sweepRecovering(g.opt.Now())
	}
}

// sweepRecovering re-queues reconciliation-set jobs whose shard never
// came back inside the window. Each re-queued job is seeded from its
// journaled keyframe, so the replacement shard resumes mid-run rather
// than replaying from step zero.
func (g *Gateway) sweepRecovering(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.recovering) == 0 {
		return
	}
	var due []*GwJob
	for _, j := range g.recovering {
		if now.After(j.recoverBy) {
			due = append(due, j)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, k int) bool { return due[i].ID < due[k].ID })
	for _, j := range due {
		delete(g.recovering, j.ID)
		j.recoverBy = time.Time{}
		g.opt.Logf("nbodygw: reconcile window expired for job %s; re-queueing (keyframe step %d)", j.ID, j.keyframeStep)
		g.requeueLocked(j, "reconcile")
	}
	g.finishReconcileLocked(now)
	g.dispatchLocked()
}

// tenantFor returns (creating if needed) the tenant record.
func (g *Gateway) tenantFor(name string) *tenant {
	if t, ok := g.tenants[name]; ok {
		return t
	}
	cfg := g.opt.Tenants[name]
	if cfg.Rate <= 0 {
		cfg.Rate = g.opt.TenantRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = g.opt.TenantBurst
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	t := &tenant{
		name:   name,
		weight: cfg.Weight,
		bucket: NewTokenBucket(cfg.Rate, cfg.Burst, g.opt.Now()),
	}
	g.tenants[name] = t
	return t
}

// Submit admits one job for a tenant: quota, cache, coalescing,
// backlog bound, then the WFQ queue. It returns the job's status
// snapshot; a *RejectedError carries the Retry-After hint.
func (g *Gateway) Submit(tenantName string, spec service.JobSpec) (GwStatus, error) {
	select {
	case <-g.stopping:
		return GwStatus{}, ErrShuttingDown
	default:
	}
	if tenantName == "" {
		tenantName = "default"
	}
	if err := spec.Validate(); err != nil {
		g.metrics.JobsInvalid.Add(1)
		return GwStatus{}, fmt.Errorf("invalid job: %w", err)
	}
	if spec.Transport != "" && spec.Transport != "inproc" {
		// Shards run their jobs locally; a tcp job would need the
		// shard's own cluster, which the fabric does not orchestrate.
		g.metrics.JobsInvalid.Add(1)
		return GwStatus{}, fmt.Errorf("invalid job: transport %q cannot be routed through the gateway (shards run jobs in-process)", spec.Transport)
	}
	now := g.opt.Now()

	g.mu.Lock()
	defer g.mu.Unlock()

	t := g.tenantFor(tenantName)
	if !t.bucket.Take(now) {
		g.metrics.JobsRejected.Add(1)
		g.metrics.Rejected.Add(tenantName, 1)
		return GwStatus{}, &RejectedError{
			Tenant:     tenantName,
			Reason:     "quota exhausted",
			RetryAfter: t.bucket.RetryAfter(now),
		}
	}

	key := spec.CacheKey()
	j := &GwJob{
		ID:      g.newJobID(),
		Tenant:  tenantName,
		Spec:    spec,
		Key:     key,
		created: now,
		state:   service.StateQueued,
	}

	// Cache hit: the canonical spec already ran somewhere; serve the
	// byte-identical result without spending any shard capacity.
	if res, ok := g.cache.Get(key); ok {
		j.cached = true
		j.state = service.StateDone
		j.result = res
		g.registerLocked(j)
		g.metrics.CacheHits.Add(1)
		g.metrics.JobsDone.Add(1)
		g.metrics.Admitted.Add(tenantName, 1)
		g.journalJobLocked(j)
		return g.statusLocked(j), nil
	}

	// In-flight coalescing: an identical job is already pending or
	// running; this submission rides along and completes with it. A
	// leader whose cancel is already in flight to its shard is skipped —
	// riding along would cancel this fresh submission too.
	if leader, ok := g.inflight[key]; ok && !leader.state.Terminal() && !leader.cancelRequested {
		j.coalesced = true
		j.state = leader.state
		j.progress = leader.progress
		leader.followers = append(leader.followers, j)
		g.registerLocked(j)
		g.metrics.Coalesced.Add(1)
		g.metrics.Admitted.Add(tenantName, 1)
		g.journalJobLocked(j)
		return g.statusLocked(j), nil
	}

	if g.pending >= g.opt.MaxPending {
		// The backlog, not the tenant, refused this job: give the quota
		// token back so a full fleet does not also drain buckets.
		t.bucket.Refund()
		g.metrics.JobsRejected.Add(1)
		g.metrics.Rejected.Add(tenantName, 1)
		return GwStatus{}, &RejectedError{Tenant: tenantName, Reason: "dispatch backlog full", RetryAfter: time.Second}
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		g.metrics.JobsInvalid.Add(1)
		return GwStatus{}, fmt.Errorf("fabric: encoding spec: %w", err)
	}
	j.specJSON = specJSON
	g.registerLocked(j)
	g.inflight[key] = j
	t.tagJob(j, g.vtime)
	g.pending++
	g.metrics.JobsPending.Add(1)
	g.metrics.Admitted.Add(tenantName, 1)
	g.journalJobLocked(j)
	g.dispatchLocked()
	return g.statusLocked(j), nil
}

// registerLocked indexes a new job.
func (g *Gateway) registerLocked(j *GwJob) {
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
	g.metrics.JobsSubmitted.Add(1)
}

// dispatchLocked drains the WFQ backlog onto shards with free lease
// slots: pick the globally smallest finish tag, route it to the first
// shard in its key's ring order with capacity, repeat until no job can
// be placed. Consistent hashing names the preferred shard; capacity
// spill walks the ring so one hot key range cannot head-of-line-block
// the fleet.
func (g *Gateway) dispatchLocked() {
	for {
		var best *tenant
		for _, t := range g.tenants {
			if len(t.queue) == 0 {
				continue
			}
			if best == nil || t.queue[0].finishTag < best.queue[0].finishTag {
				best = t
			}
		}
		if best == nil {
			return
		}
		j := best.queue[0]
		if j.state.Terminal() {
			// Canceled or failed while queued: drop it from the backlog.
			best.queue = best.queue[1:]
			g.pending--
			g.metrics.JobsPending.Add(-1)
			continue
		}
		sc := g.routeLocked(j.Key)
		if sc == nil {
			return // no shard has a free lease slot (or fleet is empty)
		}
		best.queue = best.queue[1:]
		g.pending--
		g.metrics.JobsPending.Add(-1)
		if j.finishTag > g.vtime {
			g.vtime = j.finishTag
		}

		lease := g.nextLease.Add(1)
		j.lease = lease
		j.shard = sc
		sc.leases[lease] = j
		g.metrics.JobsLeased.Add(1)
		g.metrics.Routed.Add(sc.name, 1)
		g.metrics.RouteSeconds.Observe(g.opt.Now().Sub(j.created).Seconds())
		if err := g.enqueue(sc, Assign{Lease: lease, JobID: j.ID, SpecJSON: j.specJSON,
			ResumeStep: j.keyframeStep, Keyframe: j.keyframe}); err != nil {
			if errors.Is(err, errSendQueueFull) {
				// A stalled shard is failed in place (g.mu is held, so
				// the unlocked shardFailed wrapper would self-deadlock);
				// its leases — this job included — re-queue and the loop
				// re-routes them across the survivors.
				g.shardFailedLocked(sc, &transport.TransportError{Kind: transport.FaultStall, Proc: sc.id,
					Err: fmt.Errorf("shard %s send queue full", sc.name)})
				continue
			}
			// Encoding failures are deterministic: fail the job rather
			// than leave a phantom lease the heartbeat keeps alive or
			// burn the re-route budget retrying a hopeless frame.
			delete(sc.leases, lease)
			g.metrics.JobsLeased.Add(-1)
			j.lease, j.shard = 0, nil
			if g.inflight[j.Key] == j {
				delete(g.inflight, j.Key)
			}
			g.finishLocked(j, service.StateFailed, nil, fmt.Sprintf("encoding assign frame: %v", err))
			continue
		}
		g.journalJobLocked(j)
	}
}

// routeLocked picks the shard for a key: its ring owner if that shard
// has a free lease slot, else the next successors in ring order.
func (g *Gateway) routeLocked(key string) *shardConn {
	for _, id := range g.ring.Successors(hashKey(key), len(g.shards)) {
		sc := g.shards[id]
		if sc != nil && len(sc.leases) < sc.capacity {
			return sc
		}
	}
	return nil
}

// Get returns one gateway job's status.
func (g *Gateway) Get(id string) (GwStatus, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return GwStatus{}, ErrNotFound
	}
	return g.statusLocked(j), nil
}

// Jobs lists gateway jobs in submission order.
func (g *Gateway) Jobs() []GwStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]GwStatus, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.statusLocked(g.jobs[id]))
	}
	return out
}

// Result returns the result JSON of a completed gateway job.
func (g *Gateway) Result(id string) (json.RawMessage, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.state != service.StateDone || j.result == nil {
		return nil, ErrNotDone
	}
	return j.result, nil
}

// Cancel cancels a pending or leased gateway job. A leased leader with
// followers keeps its shard job running — the followers still want the
// result — and only the caller's job is detached.
func (g *Gateway) Cancel(id string) (GwStatus, error) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		return GwStatus{}, ErrNotFound
	}
	if j.state.Terminal() {
		st := g.statusLocked(j)
		g.mu.Unlock()
		return st, ErrTerminal
	}
	var notify *shardConn
	var cancelMsg Cancel
	switch {
	case j.coalesced:
		// Detach from the leader; the leader keeps running.
		if leader, ok := g.inflight[j.Key]; ok {
			for i, f := range leader.followers {
				if f == j {
					leader.followers = append(leader.followers[:i], leader.followers[i+1:]...)
					break
				}
			}
		}
		j.state = service.StateCanceled
		g.metrics.JobsCanceled.Add(1)
		g.journalJobLocked(j)
	case j.shard != nil:
		if len(j.followers) > 0 {
			// Promote the first follower to leader so the shard job's
			// eventual result still lands somewhere.
			leader := j.followers[0]
			leader.followers = append(leader.followers, j.followers[1:]...)
			leader.coalesced = false
			leader.lease, leader.shard, leader.localID = j.lease, j.shard, j.localID
			leader.specJSON = j.specJSON
			leader.keyframe, leader.keyframeStep = j.keyframe, j.keyframeStep
			leader.resumedStep, leader.framesAddr = j.resumedStep, j.framesAddr
			j.shard.leases[j.lease] = leader
			g.inflight[j.Key] = leader
			j.followers = nil
			j.lease, j.shard = 0, nil
			j.state = service.StateCanceled
			g.metrics.JobsCanceled.Add(1)
			g.journalJobLocked(leader)
			g.journalJobLocked(j)
		} else {
			notify = j.shard
			cancelMsg = Cancel{Lease: j.lease, JobID: j.ID}
			// Terminal state arrives via Done(canceled) from the shard;
			// if the shard dies first, the flag makes requeueLocked
			// finish the job canceled instead of re-routing it.
			j.cancelRequested = true
			g.journalJobLocked(j)
		}
	case len(j.followers) > 0:
		// Pending leader with coalesced followers: hand the queue slot
		// to the first follower so other tenants' identical submissions
		// survive this caller's cancel, mirroring the leased promotion.
		leader := j.followers[0]
		leader.followers = append(leader.followers, j.followers[1:]...)
		leader.coalesced = false
		leader.state = service.StateQueued
		leader.specJSON = j.specJSON
		leader.keyframe, leader.keyframeStep = j.keyframe, j.keyframeStep
		leader.finishTag = j.finishTag
		g.inflight[j.Key] = leader
		g.tenantFor(j.Tenant).replaceQueued(j, leader)
		j.followers = nil
		j.state = service.StateCanceled
		g.metrics.JobsCanceled.Add(1)
		g.journalJobLocked(leader)
		g.journalJobLocked(j)
	default:
		// Pending, alone: mark terminal and free the backlog slot
		// eagerly so canceled jobs cannot pin g.pending at the bound.
		if g.inflight[j.Key] == j {
			delete(g.inflight, j.Key)
		}
		g.finishLocked(j, service.StateCanceled, nil, "")
		if g.tenantFor(j.Tenant).removeQueued(j) {
			g.pending--
			g.metrics.JobsPending.Add(-1)
		}
	}
	st := g.statusLocked(j)
	g.mu.Unlock()
	if notify != nil {
		g.send(notify, cancelMsg)
	}
	return st, nil
}

// Shards returns the fleet view sorted by shard ID.
func (g *Gateway) Shards() []ShardStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ShardStatus, 0, len(g.shards))
	for _, sc := range g.shards {
		out = append(out, ShardStatus{
			ID:       sc.id,
			Name:     sc.name,
			HTTPAddr: sc.httpAddr,
			Capacity: sc.capacity,
			Leases:   len(sc.leases),
			Routed:   g.metrics.Routed.Get(sc.name),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (g *Gateway) statusLocked(j *GwJob) GwStatus {
	st := GwStatus{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Key:         j.Key,
		State:       j.state,
		Error:       j.errMsg,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Retries:     j.retries,
		Created:     j.created,
		Spec:        j.Spec,
		Progress:    j.progress,
		ResumedStep: j.resumedStep,
	}
	if j.shard != nil {
		st.Shard = j.shard.name
	}
	return st
}

// newJobID mints a gateway job ID ("g" prefix so fleet and shard IDs
// never collide in logs).
func (g *Gateway) newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		v := uint64(g.opt.Now().UnixNano())*0x9E3779B97F4A7C15 + g.nextLease.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return "g" + hex.EncodeToString(b[:])
}
