package fabric

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
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
	// journaling (the pre-HA behavior). Terminal results go to a result
	// log at JournalPath + ".results" (an unlinked temporary file when
	// JournalPath is empty).
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
	return o
}

// place is where a live gateway job sits. A job is in exactly one
// place, and only detachLocked and the place's attach function write the
// index and the gauge the place owns.
type place uint8

const (
	placeNone      place = iota // terminal, or not admitted yet: in no index
	placeQueued                 // a slot in GwJob.queue's backlog; g.pending, JobsPending
	placeLeased                 // GwJob.shard's leases[Lease]; JobsLeased
	placeHeld                   // g.recovering until GwJob.recoverBy
	placeFollowing              // GwJob.leader's followers
)

// GwJob is one job tracked by the gateway. Guarded by the gateway
// mutex; external packages read Status snapshots.
type GwJob struct {
	// journalJob is the durable record, journaled as it stands. Shard,
	// LeaderID and Recovering are zero on a live job: record fills them
	// from the place.
	journalJob
	Spec service.JobSpec // SpecJSON, decoded

	// place, and the one field that belongs to it: the tenant whose
	// backlog holds the slot (a promoted follower keeps its canceled
	// leader's), the shard holding Lease, the deadline for the shard to
	// reconnect and report the job before the watchdog re-queues it, or
	// the identical in-flight submission this one completes with.
	place     place
	queue     *tenant
	shard     *shardConn
	recoverBy time.Time
	leader    *GwJob

	// followers are the jobs whose leader this is; heir is the one that
	// took this canceled leader's place, and the report of a shard still
	// running the job under this ID lands on it.
	followers []*GwJob
	heir      *GwJob
	// keyframe is the latest frame-store keyframe streamed back by the
	// job's shard (KeyframeStep), carried out with the next Assign after
	// a re-route so the replacement shard resumes mid-run. A terminal job
	// drops it.
	keyframe []byte
	progress json.RawMessage
	// result is where a done job's result bytes are.
	result resultRef
}

// resultRef locates a done job's result: a record of the result log, or
// memory when the log refused the append (the journal's own degrade
// rule, for that one result).
type resultRef struct {
	span resultSpan
	mem  json.RawMessage
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
	live     *transport.Live
	sendq    chan []byte
	leases   map[uint64]*GwJob
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
	pending  int
	vtime    float64

	// results holds every terminal result once per key; its index is the
	// result cache. Set for the gateway's lifetime (Result reads it
	// without g.mu).
	results *ResultLog

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
		metrics:    NewMetrics(time.Now()),
		shards:     make(map[int]*shardConn),
		ring:       NewRing(nil),
		jobs:       make(map[string]*GwJob),
		tenants:    make(map[string]*tenant),
		inflight:   make(map[string]*GwJob),
		recovering: make(map[string]*GwJob),
		started:    time.Now(),
		reconciled: true, // restore() reopens the window if leases replay
		stopping:   make(chan struct{}),
	}
	resultsPath := ""
	if opt.JournalPath != "" {
		resultsPath = opt.JournalPath + ".results"
	}
	if g.results, err = OpenResultLog(resultsPath); err != nil {
		ln.Close()
		return nil, err
	}
	g.metrics.ResultLogBytes.Store(g.results.Size())
	if opt.JournalPath != "" {
		jl, st, err := OpenJournal(opt.JournalPath)
		if err != nil {
			g.results.Close()
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
// re-registered, each done job finds its result in the result log (a
// legacy inline result is migrated there first; a done job whose result
// the log lacks runs again), and each live job is
// attached to the place its last record implies — a follower to its
// leader, a job that held a lease at the crash to the reconciliation set
// (held out of dispatch until its shard reconnects and reports it or the
// reconcile window expires), anything else to its tenant's backlog.
func (g *Gateway) restore(st *JournalState) {
	now := time.Now()
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
	// One pass in submission order: a follower's leader was submitted
	// before it (a promoted heir is its leader's oldest follower), so it
	// is registered by the time the follower looks it up. Live jobs replay
	// cannot carry on with are set aside, their Error saying why, and
	// failed only once every job is registered: the journal append may
	// compact, and the snapshot must not be of half a gateway.
	var lost, rerun []*GwJob
	var held, queued, terminal int
	for _, id := range st.Order {
		rec := st.Jobs[id]
		j := &GwJob{journalJob: *rec}
		// Restated by the place and the heir link.
		j.Lease, j.Shard, j.LeaderID, j.Recovering, j.HeirID = 0, "", "", false, ""
		var specErr error
		if len(j.SpecJSON) > 0 {
			specErr = json.Unmarshal(j.SpecJSON, &j.Spec)
		}
		if kf, ok := st.Keyframes[id]; ok {
			j.keyframe = kf.Data
			if kf.Step > j.KeyframeStep {
				j.KeyframeStep = kf.Step
			}
		}
		g.jobs[id] = j
		g.order = append(g.order, id)
		leader := g.jobs[rec.LeaderID]
		resultLost := j.State == service.StateDone && !g.restoreResultLocked(j)
		if resultLost {
			j.State = service.StateQueued
		}
		switch {
		case j.State.Terminal():
			terminal++
			j.keyframe = nil
		case specErr != nil:
			j.Error = fmt.Sprintf("journal replay: decoding spec: %v", specErr)
			lost = append(lost, j)
		case resultLost:
			rerun = append(rerun, j)
		case j.Coalesced && (leader == nil || leader.State.Terminal()):
			// Failed rather than resurrected as a duplicate run.
			j.Error = "journal replay: coalesced leader lost"
			lost = append(lost, j)
		case j.Coalesced:
			g.followLocked(j, leader)
		case (rec.Lease != 0 && rec.Shard != "") || rec.Recovering:
			// Held a lease at the crash (or already sat in the previous
			// incarnation's reconciliation set): its shard may still be
			// running it, and re-routing now would double-execute the job.
			g.inflight[j.Key] = j
			j.State = service.StateRunning
			g.holdLocked(j, now.Add(g.opt.ReconcileWindow))
			held++
		default:
			// Admitted but never leased: back to its tenant's queue under
			// its journaled finish tag.
			g.inflight[j.Key] = j
			j.State = service.StateQueued
			g.enqueueLocked(j, g.tenantFor(j.Tenant), false)
			queued++
		}
	}
	// An heir was submitted after its leader: both are registered now.
	for _, id := range st.Order {
		if heir := g.jobs[st.Jobs[id].HeirID]; heir != nil {
			g.jobs[id].heir = heir
		}
	}
	// A done record whose result the log lacks (a crash between the two
	// writes, or a log removed by hand) runs again under its old finish
	// tag: results are deterministic in the key, so a re-run is correct
	// where serving nothing is not. Jobs sharing a key share the one run.
	for _, j := range rerun {
		g.opt.Logf("nbodygw: job %s is done in the journal but the result log has no result for it; re-running", j.ID)
		j.Cached, j.Coalesced = false, false
		if leader := g.inflight[j.Key]; leader != nil && !leader.CancelRequested {
			g.followLocked(j, leader)
		} else {
			g.inflight[j.Key] = j
			g.enqueueLocked(j, g.tenantFor(j.Tenant), false)
		}
		g.journalJobLocked(j)
	}
	for _, t := range g.tenants {
		q := t.queue
		sort.Slice(q, func(i, k int) bool { return q[i].FinishTag < q[k].FinishTag })
	}
	for _, j := range lost {
		g.finishLocked(j, service.StateFailed, j.Error)
	}
	g.reconciled = len(g.recovering) == 0 // gauge stays 0 when nothing to reconcile
	g.opt.Logf("nbodygw: journal replayed %d job(s): %d awaiting shard reconciliation, %d re-queued, %d re-run, %d terminal",
		len(g.order), held, queued, len(rerun), terminal)
}

// restoreResultLocked points a replayed done job at its result in the
// result log, first moving a legacy inline result there. It reports
// whether the job has a result.
func (g *Gateway) restoreResultLocked(j *GwJob) bool {
	inline := j.Result
	j.Result = nil
	if len(inline) > 0 {
		j.result = g.logResultLocked(j, inline)
		return true
	}
	sp, ok := g.results.Lookup(j.Key)
	j.result = resultRef{span: sp}
	return ok
}

// logResultLocked writes a done job's result to the result log — once per
// key — and returns where it is. An append the log refuses is logged and
// the result kept in memory, so the job is still served; a restart finds
// no result for it and runs it again.
func (g *Gateway) logResultLocked(j *GwJob, result []byte) resultRef {
	sp, err := g.results.Put(j.Key, result)
	g.metrics.ResultLogBytes.Store(g.results.Size())
	if err != nil {
		g.opt.Logf("nbodygw: job %s: %v; result kept in memory", j.ID, err)
		return resultRef{mem: append(json.RawMessage(nil), result...)}
	}
	return resultRef{span: sp}
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
	for _, sc := range conns {
		sc.live.Close(true)
	}
	g.wg.Wait()
	g.mu.Lock()
	err := g.journal.Close()
	g.journal = nil
	if rerr := g.results.Close(); err == nil {
		err = rerr
	}
	g.mu.Unlock()
	return err
}

// journalJobLocked appends j's full current state to the journal.
// Requires g.mu.
func (g *Gateway) journalJobLocked(j *GwJob) {
	if g.journal != nil {
		g.journaledLocked("job", j.ID, g.journal.AppendJob(j.record()))
	}
}

// journalKeyframeLocked appends a job's latest replicated keyframe as
// its own record so the (large) frame bytes are not re-written with
// every job-state transition. Requires g.mu.
func (g *Gateway) journalKeyframeLocked(j *GwJob) {
	if g.journal != nil {
		g.journaledLocked("keyframe", j.ID, g.journal.AppendKeyframe(j.ID, j.KeyframeStep, j.keyframe))
	}
}

// journaledLocked is the tail of every journal append: it compacts the
// log when it outgrows its snapshot budget and refreshes the size gauge.
// Journal write errors are logged, not fatal: the gateway stays
// available and degrades to pre-HA (in-memory) behavior for the record
// it could not write. The result log is synced before a snapshot is
// renamed into place: the snapshot's done jobs name results by key, and
// it must not outlive them on disk.
func (g *Gateway) journaledLocked(what, id string, err error) {
	if err != nil {
		g.opt.Logf("nbodygw: journal append (%s %s): %v", what, id, err)
	}
	if g.journal.ShouldCompact() {
		err := g.results.Sync()
		if err == nil {
			err = g.journal.Compact(g.snapshotLocked())
		}
		if err != nil {
			g.opt.Logf("nbodygw: journal compaction: %v", err)
		}
	}
	g.metrics.JournalBytes.Store(g.journal.Size())
}

// record builds the durable form of the job: the embedded record with
// the three fields that restate its place, and its heir.
func (j *GwJob) record() *journalJob {
	rec := j.journalJob
	rec.Recovering = j.place == placeHeld
	if j.shard != nil {
		rec.Shard = j.shard.name
	}
	if j.leader != nil {
		rec.LeaderID = j.leader.ID
	}
	if j.heir != nil {
		rec.HeirID = j.heir.ID
	}
	if len(rec.SpecJSON) == 0 {
		rec.SpecJSON, _ = json.Marshal(j.Spec)
	}
	return &rec
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
		snap.Jobs = append(snap.Jobs, *j.record())
		if len(j.keyframe) > 0 && !j.State.Terminal() {
			snap.Keyframes = append(snap.Keyframes,
				journalKeyframe{ID: j.ID, Step: j.KeyframeStep, Data: j.keyframe})
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
		sendq:    make(chan []byte, 1024),
		leases:   make(map[uint64]*GwJob),
	}
	if sc.capacity < 1 {
		sc.capacity = 1
	}

	g.mu.Lock()
	// A reconnecting shard replaces its old session. The stale session's
	// leases are NOT re-routed: the shard is alive (it just dialed us)
	// and is still running them, so they move to the reconciliation set
	// and the fresh session's ReportJobs re-binds them in place. Only if
	// the report never mentions them does the window expiry re-queue.
	for _, prev := range g.shards {
		if prev.name == sc.name {
			if g.retireShardLocked(prev, nil) {
				g.opt.Logf("nbodygw: shard %s re-registered; awaiting lease report from fresh session", sc.name)
			}
			break
		}
	}
	sc.id = g.nextShard
	g.nextShard++
	sc.live = transport.NewLive(c, sc.id, nil)
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
				if err := sc.live.Write(buf); err != nil {
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

	// The shard pings; any frame renews its leases, and a shard silent
	// past the lease TTL is declared dead with a heartbeat fault.
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		sc.live.Keep(0, g.opt.LeaseTTL, nil)
	}()
	err = sc.live.Read(func(kind uint8, body []byte) error {
		if kind != transport.KindHost {
			return nil
		}
		v, err := transport.Unmarshal(body)
		if err != nil {
			return &transport.TransportError{Kind: transport.FaultCorrupt, Proc: sc.id,
				Err: fmt.Errorf("bad control frame from shard %s: %w", sc.name, err)}
		}
		g.handleControl(sc, v)
		return nil
	})
	// Read ends with a TransportError, or with nil after the shard's Bye.
	lost := &transport.TransportError{Kind: transport.FaultClosed, Proc: sc.id,
		Err: fmt.Errorf("shard %s closed gracefully", sc.name)}
	errors.As(err, &lost)
	g.shardFailed(sc, lost)
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
	case Accept:
		g.handleAccept(sc, msg)
	case Update:
		g.handleUpdate(sc, msg)
	case Keyframe:
		g.handleKeyframe(sc, msg)
	case ReportJobs:
		g.handleReport(sc, msg)
	case Parked:
		g.handleResult(sc, msg)
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
	if j == nil {
		return // stale: the job was re-routed already
	}
	if msg.Err == "" {
		j.LocalID = msg.LocalID
		j.FramesAddr = sc.httpAddr
		j.ResumedStep = int(msg.ResumedStep)
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
	if j == nil {
		return // stale: the job was re-routed already
	}
	if msg.Step <= j.KeyframeStep && j.keyframe != nil {
		return // out-of-order replication; keep the newer frame
	}
	j.keyframe = append([]byte(nil), msg.Data...)
	j.KeyframeStep = msg.Step
	g.metrics.KeyframesReplicated.Add(1)
	g.journalKeyframeLocked(j)
}

// handleUpdate forwards a progress snapshot onto the gateway job.
func (g *Gateway) handleUpdate(sc *shardConn, msg Update) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := sc.leases[msg.Lease]
	if j == nil {
		return
	}
	if s := service.State(msg.State); s == service.StateQueued || s == service.StateRunning {
		j.State = s
	}
	j.progress = append(json.RawMessage(nil), msg.ProgressJSON...)
	for _, f := range j.followers {
		f.State = j.State
		f.progress = j.progress
	}
}

// settleLocked lands a shard's terminal report on j and its followers: a
// done result goes to the result log before the done records are
// journaled; anything but done or canceled is a failure.
func (g *Gateway) settleLocked(j *GwJob, state string, resultJSON []byte, errMsg string) {
	switch service.State(state) {
	case service.StateDone:
		j.result = g.logResultLocked(j, resultJSON)
		g.finishLocked(j, service.StateDone, "")
	case service.StateCanceled:
		g.finishLocked(j, service.StateCanceled, "")
	default:
		g.finishLocked(j, service.StateFailed, errMsg)
	}
}

// handleReport reconciles a shard's in-flight leases after it (or the
// gateway) restarted. Each reported job the gateway still wants — known,
// non-terminal, not leased elsewhere — is adopted: re-bound to this
// session under a fresh lease, exactly where it was running, so a
// gateway crash or connection blip never re-executes completed steps.
// Everything else is released: the shard cancels its local copy. A
// canceled leader's report lands on its heir (see reportedLocked); the
// Adopt and Release carry the reported ID, the key of the shard's run.
func (g *Gateway) handleReport(sc *shardConn, msg ReportJobs) {
	g.mu.Lock()
	adopted := 0
	for _, item := range msg.Jobs {
		j := g.reportedLocked(item.JobID)
		switch {
		case j == nil || j.State.Terminal():
			g.enqueue(sc, Release{JobID: item.JobID, LocalID: item.LocalID})
		case j.shard == sc:
			// Duplicate report on the live session; the lease stands.
		case j.shard != nil:
			// Already re-routed to another live shard; that copy wins and
			// this one stops burning cycles.
			g.enqueue(sc, Release{JobID: item.JobID, LocalID: item.LocalID})
		case j.CancelRequested:
			// A cancel raced the outage; honor it instead of adopting.
			g.enqueue(sc, Release{JobID: item.JobID, LocalID: item.LocalID})
			g.finishLocked(j, service.StateCanceled, "")
		default:
			// Held (journaled lease) or re-queued but not yet dispatched:
			// adopt in place.
			g.leaseLocked(j, sc, g.nextLease.Add(1))
			j.LocalID, j.FramesAddr = item.LocalID, sc.httpAddr
			j.State = service.StateRunning
			g.metrics.JobsAdopted.Add(1)
			g.journalJobLocked(j)
			g.enqueue(sc, Adopt{Lease: j.Lease, JobID: item.JobID, LocalID: item.LocalID})
			adopted++
		}
	}
	g.finishReconcileLocked()
	g.mu.Unlock()
	if len(msg.Jobs) > 0 {
		g.opt.Logf("nbodygw: shard %s reported %d in-flight job(s), adopted %d", sc.name, len(msg.Jobs), adopted)
	}
}

// reportedLocked resolves the job ID a shard reports, the ID its run was
// assigned under, to the job that now stands for that run: the job
// itself, or — when it was a leader canceled after its follower was
// promoted — its heir. Nil for an unknown ID.
func (g *Gateway) reportedLocked(id string) *GwJob {
	j := g.jobs[id]
	for j != nil && j.heir != nil {
		j = j.heir
	}
	return j
}

// handleResult lands a shard's terminal report, the one way a result
// reaches the gateway, and always acknowledges it, so the shard's outbox
// entry goes even on redelivery. A non-terminal job settles when the
// report is done (a lease another session holds is canceled: this result
// won), when the sender holds the job's lease, or when no session holds
// it; a failure or cancel from a session that lost the job to another
// settles nothing.
func (g *Gateway) handleResult(sc *shardConn, msg Parked) {
	g.mu.Lock()
	j := g.reportedLocked(msg.JobID)
	if j != nil && !j.State.Terminal() &&
		(j.shard == sc || j.shard == nil || service.State(msg.State) == service.StateDone) {
		if j.shard != sc {
			if j.shard != nil {
				g.enqueue(j.shard, Cancel{Lease: j.Lease, JobID: j.ID})
			}
			g.metrics.ParkedResults.Add(1)
		}
		g.settleLocked(j, msg.State, msg.ResultJSON, msg.Err)
		g.finishReconcileLocked()
		g.dispatchLocked()
	}
	g.enqueue(sc, ParkedAck{JobID: msg.JobID})
	g.mu.Unlock()
}

// finishReconcileLocked records the reconcile_seconds gauge once the
// restart reconciliation set drains — by adoption, a shard's report, or
// timeout re-queue.
func (g *Gateway) finishReconcileLocked() {
	if g.reconciled || len(g.recovering) > 0 {
		return
	}
	g.reconciled = true
	took := time.Since(g.started)
	g.metrics.SetReconcileSeconds(took.Seconds())
	g.opt.Logf("nbodygw: restart reconciliation complete in %v", took.Round(time.Millisecond))
}

// detachLocked takes j out of the place it is in, leaving it nowhere.
func (g *Gateway) detachLocked(j *GwJob) {
	switch j.place {
	case placeQueued:
		j.queue.removeQueued(j)
		j.queue = nil
		g.pending--
		g.metrics.JobsPending.Add(-1)
	case placeLeased:
		delete(j.shard.leases, j.Lease)
		j.Lease, j.shard = 0, nil
		g.metrics.JobsLeased.Add(-1)
	case placeHeld:
		delete(g.recovering, j.ID)
		j.recoverBy = time.Time{}
	case placeFollowing:
		if i := slices.Index(j.leader.followers, j); i >= 0 {
			j.leader.followers = slices.Delete(j.leader.followers, i, i+1)
		}
		j.leader = nil
	}
	j.place = placeNone
}

// enqueueLocked moves j into t's backlog: at the back for an admission,
// at the front for a job that lost its shard and keeps its finish tag.
func (g *Gateway) enqueueLocked(j *GwJob, t *tenant, front bool) {
	g.detachLocked(j)
	if front {
		t.requeueFront(j)
	} else {
		t.queue = append(t.queue, j)
	}
	j.place, j.queue = placeQueued, t
	g.pending++
	g.metrics.JobsPending.Add(1)
}

// leaseLocked moves j onto shard sc under lease.
func (g *Gateway) leaseLocked(j *GwJob, sc *shardConn, lease uint64) {
	g.detachLocked(j)
	j.place, j.shard, j.Lease = placeLeased, sc, lease
	sc.leases[lease] = j
	g.metrics.JobsLeased.Add(1)
}

// holdLocked moves j into the reconciliation set: out of every dispatch
// queue, waiting until the deadline for its shard to report it.
func (g *Gateway) holdLocked(j *GwJob, until time.Time) {
	g.detachLocked(j)
	j.place, j.recoverBy = placeHeld, until
	g.recovering[j.ID] = j
	g.reconciled = false
}

// followLocked coalesces j onto leader: it completes when leader does.
func (g *Gateway) followLocked(j, leader *GwJob) {
	g.detachLocked(j)
	j.place, j.leader = placeFollowing, leader
	j.Coalesced = true
	j.State, j.progress = leader.State, leader.progress
	leader.followers = append(leader.followers, j)
}

// promoteLocked makes j's first follower the leader in j's stead, so the
// other submissions riding on j survive its cancel. The heir takes over
// everything that describes the run and j's exact place — the queue slot
// (in the backlog that was charged for it), the lease (the shard's report
// for j lands on the heir) or the hold (same deadline) — and j is left
// nowhere for the caller to finish.
func (g *Gateway) promoteLocked(j *GwJob) {
	heir := j.followers[0]
	j.heir = heir
	g.detachLocked(heir)
	heir.followers, j.followers = j.followers, nil
	for _, f := range heir.followers {
		f.leader = heir
	}
	heir.Coalesced = false
	heir.State, heir.SpecJSON, heir.FinishTag = j.State, j.SpecJSON, j.FinishTag
	heir.LocalID, heir.ResumedStep, heir.FramesAddr = j.LocalID, j.ResumedStep, j.FramesAddr
	heir.keyframe, heir.KeyframeStep = j.keyframe, j.KeyframeStep
	g.inflight[j.Key] = heir
	switch sc, lease, until := j.shard, j.Lease, j.recoverBy; j.place {
	case placeQueued:
		j.queue.replaceQueued(j, heir)
		heir.place, heir.queue = placeQueued, j.queue
		j.place, j.queue = placeNone, nil
	case placeLeased:
		g.detachLocked(j)
		g.leaseLocked(heir, sc, lease)
	case placeHeld:
		g.detachLocked(j)
		g.holdLocked(heir, until)
	}
	g.journalJobLocked(heir)
}

// finishLocked moves a job and its followers to a terminal state: out of
// their places and the in-flight index, sharing j's result, keyframe
// dropped, then journaled.
func (g *Gateway) finishLocked(j *GwJob, state service.State, errMsg string) {
	for _, job := range append([]*GwJob{j}, j.followers...) {
		g.detachLocked(job)
		// A cancel-requested leader may have been replaced in the index by
		// a fresh leader for the same key; only clear our own entry.
		if g.inflight[job.Key] == job {
			delete(g.inflight, job.Key)
		}
		job.State, job.result, job.Error = state, j.result, errMsg
		job.keyframe = nil
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

// requeueLocked puts a job that lost its shard — or never got one — back
// at the front of its tenant's backlog, preserving its WFQ tag. Beyond
// the route-retry budget the job fails instead.
func (g *Gateway) requeueLocked(j *GwJob, fault string) {
	j.LocalID = ""
	if j.CancelRequested {
		// The caller asked for a cancel the lost shard never
		// acknowledged; honor it now instead of resurrecting the job.
		g.finishLocked(j, service.StateCanceled, "")
		return
	}
	j.Retries++
	g.metrics.Rerouted.Add(fault, 1)
	if j.Retries > g.opt.RouteRetries {
		g.finishLocked(j, service.StateFailed,
			fmt.Sprintf("re-routed %d times without completing (last fault: %s)", j.Retries, fault))
		return
	}
	j.State, j.progress = service.StateQueued, nil
	g.enqueueLocked(j, g.tenantFor(j.Tenant), true)
	g.journalJobLocked(j)
}

// shardFailed removes a shard from the fleet and re-routes every job it
// held a lease on. Must be called WITHOUT g.mu held; dispatchLocked
// reaches the same teardown via retireShardLocked.
func (g *Gateway) shardFailed(sc *shardConn, terr *transport.TransportError) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.retireShardLocked(sc, terr) {
		g.dispatchLocked()
	}
}

// retireShardLocked takes a session out of the fleet and disposes of its
// leases. A lost shard's are re-routed, the re-route metric recording
// the fault kind — the taxonomy the cluster supervisor keys on. A stale
// session's, whose shard just dialed a replacement (lost == nil), are
// held instead: the shard is alive and still running them, so the fresh
// session's ReportJobs adopts them in place, and only jobs it never
// mentions are re-queued when the window expires. Requires g.mu; does not
// dispatch (callers do, so a failure inside dispatchLocked cannot
// recurse); idempotent per session; reports whether this call retired it.
func (g *Gateway) retireShardLocked(sc *shardConn, lost *transport.TransportError) bool {
	if lost != nil {
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
	}
	if !sc.failed.CompareAndSwap(false, true) {
		return false
	}
	sc.live.Close(false)
	delete(g.shards, sc.id)
	g.rebuildRingLocked()
	g.metrics.Shards.Store(int64(len(g.shards)))
	orphans := make([]*GwJob, 0, len(sc.leases))
	for _, j := range sc.leases {
		orphans = append(orphans, j)
	}
	// Deterministic order, oldest lease first — pushed newest first,
	// because re-queueing at the front reverses.
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].Lease > orphans[k].Lease })
	until := time.Now().Add(g.opt.ReconcileWindow)
	for _, j := range orphans {
		switch {
		case lost != nil:
			g.requeueLocked(j, lost.Kind.String())
		case j.CancelRequested:
			// The cancel the stale session never acknowledged wins; the
			// fresh session's report gets a Release for it.
			g.finishLocked(j, service.StateCanceled, "")
		default:
			g.holdLocked(j, until)
			g.journalJobLocked(j)
		}
	}
	if lost != nil {
		g.opt.Logf("nbodygw: shard %d (%s) lost (%s): %d job(s) re-routed",
			sc.id, sc.name, lost.Kind, len(orphans))
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

// watchdog sweeps the reconciliation set four times per lease TTL or
// reconcile window, whichever is shorter, as it did when it also expired
// leases, so a held lease's re-queue lags its window by no more.
func (g *Gateway) watchdog() {
	defer g.wg.Done()
	t := time.NewTicker(max(min(g.opt.LeaseTTL, g.opt.ReconcileWindow)/4, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-g.stopping:
			return
		case now := <-t.C:
			g.sweepRecovering(now)
		}
	}
}

// sweepRecovering re-queues reconciliation-set jobs whose shard never
// came back inside the window. Each re-queued job is seeded from its
// journaled keyframe, so the replacement shard resumes mid-run rather
// than replaying from step zero.
func (g *Gateway) sweepRecovering(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
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
		g.opt.Logf("nbodygw: reconcile window expired for job %s; re-queueing (keyframe step %d)", j.ID, j.KeyframeStep)
		g.requeueLocked(j, "reconcile")
	}
	g.finishReconcileLocked()
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
		bucket: NewTokenBucket(cfg.Rate, cfg.Burst, time.Now()),
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
	now := time.Now()

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
	j := &GwJob{Spec: spec, journalJob: journalJob{
		ID: g.newJobID(), Tenant: tenantName, Key: key, Created: now, State: service.StateQueued,
	}}

	sp, hit := g.results.Lookup(key)
	leader := g.inflight[key]
	switch {
	case hit:
		// The canonical spec already ran somewhere; serve the
		// byte-identical result without spending any shard capacity.
		j.Cached, j.State, j.result = true, service.StateDone, resultRef{span: sp}
		g.metrics.CacheHits.Add(1)
		g.metrics.JobsDone.Add(1)
	case leader != nil && !leader.CancelRequested:
		// In-flight coalescing: an identical job is already pending or
		// running; this submission rides along and completes with it. A
		// leader whose cancel is already in flight to its shard is skipped
		// — riding along would cancel this fresh submission too.
		g.followLocked(j, leader)
		g.metrics.Coalesced.Add(1)
	case g.pending >= g.opt.MaxPending:
		// The backlog, not the tenant, refused this job: give the quota
		// token back so a full fleet does not also drain buckets.
		t.bucket.Refund()
		g.metrics.JobsRejected.Add(1)
		g.metrics.Rejected.Add(tenantName, 1)
		return GwStatus{}, &RejectedError{Tenant: tenantName, Reason: "dispatch backlog full", RetryAfter: time.Second}
	default:
		specJSON, err := json.Marshal(spec)
		if err != nil {
			g.metrics.JobsInvalid.Add(1)
			return GwStatus{}, fmt.Errorf("fabric: encoding spec: %w", err)
		}
		j.SpecJSON = specJSON
		g.inflight[key] = j
		t.tagJob(j, g.vtime)
		g.enqueueLocked(j, t, false)
	}
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
	g.metrics.JobsSubmitted.Add(1)
	g.metrics.Admitted.Add(tenantName, 1)
	g.journalJobLocked(j)
	if j.place == placeQueued {
		g.dispatchLocked()
	}
	return g.statusLocked(j), nil
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
			if best == nil || t.queue[0].FinishTag < best.queue[0].FinishTag {
				best = t
			}
		}
		if best == nil {
			return
		}
		j := best.queue[0]
		sc := g.routeLocked(j.Key)
		if sc == nil {
			return // no shard has a free lease slot (or fleet is empty)
		}
		if j.FinishTag > g.vtime {
			g.vtime = j.FinishTag
		}
		g.leaseLocked(j, sc, g.nextLease.Add(1))
		g.metrics.Routed.Add(sc.name, 1)
		g.metrics.RouteSeconds.Observe(time.Since(j.Created).Seconds())
		if err := g.enqueue(sc, Assign{Lease: j.Lease, JobID: j.ID, SpecJSON: j.SpecJSON,
			ResumeStep: j.KeyframeStep, Keyframe: j.keyframe}); err != nil {
			if errors.Is(err, errSendQueueFull) {
				// A stalled shard is failed in place (g.mu is held, so
				// the unlocked shardFailed wrapper would self-deadlock);
				// its leases — this job included — re-queue and the loop
				// re-routes them across the survivors.
				g.retireShardLocked(sc, &transport.TransportError{Kind: transport.FaultStall, Proc: sc.id,
					Err: fmt.Errorf("shard %s send queue full", sc.name)})
				continue
			}
			// Encoding failures are deterministic: fail the job rather
			// than leave a phantom lease the heartbeat keeps alive or
			// burn the re-route budget retrying a hopeless frame.
			g.finishLocked(j, service.StateFailed, fmt.Sprintf("encoding assign frame: %v", err))
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

// Result returns the result JSON of a completed gateway job, read from
// the result log outside the gateway mutex.
func (g *Gateway) Result(id string) (json.RawMessage, error) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	done := ok && j.State == service.StateDone
	var ref resultRef
	if done {
		ref = j.result
	}
	g.mu.Unlock()
	switch {
	case !ok:
		return nil, ErrNotFound
	case !done:
		return nil, ErrNotDone
	case ref.mem != nil:
		return ref.mem, nil
	}
	return g.results.Read(ref.span)
}

// Cancel cancels a gateway job wherever it is. A leader with followers
// hands them its place first — they still want the result — so only the
// caller's job ends; a leased job alone is canceled on its shard.
func (g *Gateway) Cancel(id string) (GwStatus, error) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		return GwStatus{}, ErrNotFound
	}
	if j.State.Terminal() {
		st := g.statusLocked(j)
		g.mu.Unlock()
		return st, ErrTerminal
	}
	var notify *shardConn
	var cancelMsg Cancel
	if j.place == placeLeased && len(j.followers) == 0 {
		notify = j.shard
		cancelMsg = Cancel{Lease: j.Lease, JobID: j.ID}
		// Terminal state arrives in the shard's canceled report; if
		// the shard dies first, the flag makes requeueLocked finish the
		// job canceled instead of re-routing it.
		j.CancelRequested = true
		g.journalJobLocked(j)
	} else {
		if len(j.followers) > 0 {
			g.promoteLocked(j)
		}
		g.finishLocked(j, service.StateCanceled, "")
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
		State:       j.State,
		Error:       j.Error,
		Cached:      j.Cached,
		Coalesced:   j.Coalesced,
		Retries:     j.Retries,
		Created:     j.Created,
		Spec:        j.Spec,
		Progress:    j.progress,
		ResumedStep: j.ResumedStep,
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
		v := uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 + g.nextLease.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return "g" + hex.EncodeToString(b[:])
}
