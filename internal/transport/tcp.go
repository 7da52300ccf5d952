package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/recio"
)

// Handshake and liveness payloads live in the transport built-in ID
// block (1–20) alongside the scalar codecs in codec.go.
const (
	idStrings uint16 = 15
	idHello   uint16 = 16
	idWelcome uint16 = 17
	idIdent   uint16 = 18
	idPing    uint16 = 19
)

// helloBody is a worker's join request: the address its own listener
// advertises so peers can dial it directly.
type helloBody struct{ Addr string }

// welcomeBody completes the join: the worker's proc ID and every
// proc's advertised address, index-aligned with proc IDs.
type welcomeBody struct {
	ProcID int32
	Addrs  []string
}

// identBody is the first frame on a dialed peer connection: which proc
// is calling.
type identBody struct{ Src int32 }

// pingBody carries the sender's wall-clock send time; the pong echoes
// it back verbatim so the sender computes RTT without bookkeeping.
type pingBody struct{ Nanos int64 }

func init() {
	Register(idStrings, codeStrings)
	Register(idHello, func(c *recio.Coder, v *helloBody) { c.Str(&v.Addr) })
	Register(idWelcome, func(c *recio.Coder, v *welcomeBody) {
		c.I32(&v.ProcID)
		codeStrings(c, &v.Addrs)
	})
	Register(idIdent, func(c *recio.Coder, v *identBody) { c.I32(&v.Src) })
	Register(idPing, func(c *recio.Coder, v *pingBody) { c.I64(&v.Nanos) })
}

func codeStrings(c *recio.Coder, v *[]string) { recio.Slice(c, v, 4, (*recio.Coder).Str) }

// Config tunes a TCP node. Zero values select the defaults noted on
// each field.
type Config struct {
	// ListenAddr is the address this process listens on for peer
	// connections. Default "127.0.0.1:0" (ephemeral loopback port).
	ListenAddr string
	// AdvertiseAddr is the address peers should dial to reach this
	// process. Default: the listener's actual address.
	AdvertiseAddr string
	// DialTimeout bounds one TCP connect attempt. Default 2s.
	DialTimeout time.Duration
	// DialRetries is the number of additional attempts after the
	// first dial fails, with exponential backoff between attempts.
	// Default 8.
	DialRetries int
	// RetryBase is the first backoff interval; it doubles per retry
	// up to RetryMax, each wait jittered (see Backoff). Defaults 50ms
	// and 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HeartbeatInterval spaces ping probes on idle peer connections.
	// Default 1s; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a peer dead when no frame (data or
	// pong) has arrived on its connection for this long. Default 30s.
	HeartbeatTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialRetries == 0 {
		c.DialRetries = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 30 * time.Second
	}
	return c
}

// hostMsg is one untimed control message held in the host inbox.
type hostMsg struct {
	src     int
	payload any
}

// hostInbox is an unbounded FIFO: conn readers must never block on a
// slow host-side consumer, or data frames queued behind a host message
// on the same connection would stall the simulated machine.
type hostInbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []hostMsg
	failed error // the first failure; nothing is queued after it
}

func newHostInbox() *hostInbox {
	hi := &hostInbox{}
	hi.cond = sync.NewCond(&hi.mu)
	return hi
}

func (hi *hostInbox) put(m hostMsg) {
	hi.mu.Lock()
	if hi.failed == nil {
		hi.queue = append(hi.queue, m)
	}
	hi.mu.Unlock()
	hi.cond.Signal()
}

func (hi *hostInbox) fail(err error) {
	hi.mu.Lock()
	if hi.failed == nil {
		hi.failed = err
	}
	hi.mu.Unlock()
	hi.cond.Broadcast()
}

// get blocks for the next message; once the inbox has failed and is
// empty, it returns the failure.
func (hi *hostInbox) get() (int, any, error) {
	hi.mu.Lock()
	defer hi.mu.Unlock()
	for len(hi.queue) == 0 && hi.failed == nil {
		hi.cond.Wait()
	}
	if len(hi.queue) == 0 {
		return -1, nil, hi.failed
	}
	m := hi.queue[0]
	hi.queue = hi.queue[1:]
	return m.src, m.payload, nil
}

// Node is the implementation of Link. Proc 0 creates one with
// NewCoordinator and admits workers via WaitWorkers; workers create
// theirs with Join. Every pair of nodes shares exactly one connection,
// opened during assembly: the coordinator keeps each worker's join
// conn, and each worker dials every lower-numbered worker (identified
// by an Ident frame) and admits every higher-numbered one. Nothing is
// dialed, accepted or started after assembly. Each end of a conn is a
// Live: one reader that delivers data frames and host messages and
// answers pings, and one keeper that pings and watches the conn. The
// conns are TCP sockets, or the in-memory pipes of a machine built by
// NewMesh.
type Node struct {
	cfg     Config
	pipes   *pipeNet // where NewMesh's nodes listen and dial; nil: TCP
	procID  int
	nprocs  int
	addrs   []string
	ln      net.Listener
	metrics Metrics
	host    *hostInbox
	conns   []*Live // by peer proc, nil at procID; read-only after assembly

	dataFn atomic.Pointer[func(*Frame)]
	errFn  atomic.Pointer[func(error)]

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup
}

func newNode(cfg Config, pipes *pipeNet) *Node {
	return &Node{
		cfg:     cfg.withDefaults(),
		pipes:   pipes,
		host:    newHostInbox(),
		closeCh: make(chan struct{}),
	}
}

// NewCoordinator opens the coordinator's listener (proc 0 of an
// eventual nprocs-process machine). Call WaitWorkers to admit the
// remaining procs before any traffic.
func NewCoordinator(cfg Config, nprocs int) (*Node, error) {
	return newCoordinator(cfg, nprocs, nil)
}

func newCoordinator(cfg Config, nprocs int, pipes *pipeNet) (*Node, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("transport: machine needs at least 1 process, got %d", nprocs)
	}
	n := newNode(cfg, pipes)
	n.procID = 0
	n.nprocs = nprocs
	ln, err := n.listen()
	if err != nil {
		return nil, fmt.Errorf("transport: coordinator listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.ln = ln
	n.addrs = make([]string, nprocs)
	n.addrs[0] = n.Addr()
	return n, nil
}

// Addr returns the address peers dial to reach this node: its
// AdvertiseAddr, else its listener's.
func (n *Node) Addr() string {
	if n.cfg.AdvertiseAddr != "" {
		return n.cfg.AdvertiseAddr
	}
	return n.ln.Addr().String()
}

// WaitWorkers blocks until the other nprocs-1 processes have joined,
// assigns them proc IDs in arrival order, and distributes the address
// table; a timeout of 0 waits without bound. Each join conn becomes the
// coordinator's conn to that worker, and the listener closes. It must
// complete before the machine exchanges any frames.
func (n *Node) WaitWorkers(timeout time.Duration) error {
	if n.procID != 0 {
		return fmt.Errorf("transport: WaitWorkers is coordinator-only")
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	joined := make([]net.Conn, 0, n.nprocs-1)
	err := n.admit(n.nprocs-1, deadline, KindHello, func(c net.Conn, v any) bool {
		hello, ok := v.(helloBody)
		if ok {
			joined = append(joined, c)
			n.addrs[len(joined)] = hello.Addr
		}
		return ok
	})
	if err != nil {
		err = fmt.Errorf("transport: waiting for %d worker(s), have %d: %w", n.nprocs-1, len(joined), err)
	}
	// All workers present: complete each handshake, then start the readers.
	for i := 0; err == nil && i < len(joined); i++ {
		var buf []byte
		if buf, err = AppendControl(nil, KindWelcome, welcomeBody{ProcID: int32(i + 1), Addrs: n.addrs}); err == nil {
			err = writeFrame(joined[i], &n.metrics, buf)
		}
		if err != nil {
			err = fmt.Errorf("transport: welcome to proc %d: %w", i+1, err)
		}
	}
	if err != nil {
		for _, c := range joined {
			c.Close()
		}
		return err
	}
	n.conns = make([]*Live, n.nprocs)
	for i, c := range joined {
		n.open(i+1, c)
	}
	return nil
}

// Join connects to a coordinator at addr and returns once the machine
// is fully assembled: this worker holds a conn to every other proc. The
// dial itself honors the retry/backoff policy, so a worker may be
// started before its coordinator.
func Join(coordAddr string, cfg Config) (*Node, error) {
	return join(coordAddr, cfg, nil)
}

func join(coordAddr string, cfg Config, pipes *pipeNet) (*Node, error) {
	n := newNode(cfg, pipes)
	ln, err := n.listen()
	if err != nil {
		return nil, fmt.Errorf("transport: worker listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.ln = ln
	conn, welcome, err := n.hello(coordAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: join %s: %w", coordAddr, err)
	}
	n.procID = int(welcome.ProcID)
	n.addrs = welcome.Addrs
	n.nprocs = len(welcome.Addrs)
	n.conns = make([]*Live, n.nprocs)
	// The join conn is this worker's conn to the coordinator.
	n.open(0, conn)
	if err := n.meetPeers(); err != nil {
		n.Abort(err)
		return nil, fmt.Errorf("transport: proc %d assembling: %w", n.procID, err)
	}
	return n, nil
}

// meetPeers opens this worker's conn to every other worker: it dials
// each lower-numbered one in proc order and sends an Ident before
// opening the conn, so no ping can precede it, then admits
// an Ident from each higher-numbered one and closes the listener. A
// pipe dial waits for its accept; in proc order, the lower procs a
// worker dials have finished dialing theirs and are accepting. The
// admission waits as long as the dial policy lets one dial take.
func (n *Node) meetPeers() error {
	deadline := time.Now().Add(time.Duration(n.cfg.attempts()) * (n.cfg.DialTimeout + n.cfg.RetryMax))
	ident, err := AppendControl(nil, KindIdent, identBody{Src: int32(n.procID)})
	if err != nil {
		return err
	}
	for peer := 1; peer < n.procID; peer++ {
		c, err := n.dialRetry(n.addrs[peer])
		if err == nil {
			if err = writeFrame(c, &n.metrics, ident); err != nil {
				c.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("to proc %d: %w", peer, err)
		}
		n.open(peer, c)
	}
	return n.admit(n.nprocs-1-n.procID, deadline, KindIdent, func(c net.Conn, v any) bool {
		ident, ok := v.(identBody)
		peer := int(ident.Src)
		if !ok || peer <= n.procID || peer >= n.nprocs || n.conns[peer] != nil {
			return false
		}
		n.open(peer, c)
		return true
	})
}

// admit accepts conns on the node's listener and reads a handshake
// frame of the given kind off each, until take has kept count of them;
// a conn take refuses is closed. The listener closes when admit returns
// (nothing is accepted after assembly) or at the deadline, which fails
// the wait; a zero deadline waits without bound.
func (n *Node) admit(count int, deadline time.Time, kind uint8, take func(c net.Conn, v any) bool) error {
	defer n.ln.Close()
	if !deadline.IsZero() {
		defer time.AfterFunc(time.Until(deadline), func() { n.ln.Close() }).Stop()
	}
	for kept := 0; kept < count; {
		c, err := n.ln.Accept()
		if err != nil {
			if !deadline.IsZero() && time.Now().After(deadline) {
				err = fmt.Errorf("timed out: %w", err)
			}
			return err
		}
		c.SetReadDeadline(deadline)
		v, err := n.readControl(c, kind)
		c.SetReadDeadline(time.Time{})
		if err != nil || !take(c, v) {
			c.Close()
			continue
		}
		kept++
	}
	return nil
}

// open makes c the node's conn to peer, under the proc's fault plan,
// once its handshake frames are written, and starts its reader and, with
// heartbeats on, its keeper. A negative HeartbeatInterval turns off the
// deadline with the pings: without probes an idle healthy peer sends
// nothing, and a lone deadline would declare it dead.
func (n *Node) open(peer int, c net.Conn) {
	l := NewLive(n.wrap(c, peer), peer, &n.metrics)
	n.conns[peer] = l
	n.metrics.ConnsOpen.Add(1)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.read(l)
	}()
	if n.cfg.HeartbeatInterval < 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		l.Keep(n.cfg.HeartbeatInterval, n.cfg.deadAfter(), nil)
	}()
}

// deadAfter is how long a conn may stay silent. It leaves room for at
// least one full probe round trip: with probes spaced wider than the
// configured timeout, a healthy idle peer has had no chance to prove
// itself alive when the raw timeout expires.
func (c Config) deadAfter() time.Duration {
	if c.HeartbeatInterval > c.HeartbeatTimeout {
		return c.HeartbeatInterval + c.HeartbeatTimeout
	}
	return c.HeartbeatTimeout
}

// hello dials the coordinator, says Hello and reads the Welcome.
func (n *Node) hello(coordAddr string) (net.Conn, welcomeBody, error) {
	conn, err := n.dialRetry(coordAddr)
	if err != nil {
		return nil, welcomeBody{}, err
	}
	buf, err := AppendControl(nil, KindHello, helloBody{Addr: n.Addr()})
	if err == nil {
		err = writeFrame(conn, &n.metrics, buf)
	}
	var v any
	if err == nil {
		v, err = n.readControl(conn, KindWelcome)
	}
	welcome, ok := v.(welcomeBody)
	if err == nil && !ok {
		err = fmt.Errorf("welcome body is %T", v)
	}
	if err != nil {
		conn.Close()
	}
	return conn, welcome, err
}

// readControl reads the handshake frame of the given kind off c and
// decodes its body.
func (n *Node) readControl(c net.Conn, kind uint8) (any, error) {
	got, body, err := ReadRaw(c)
	if err == nil && got != kind {
		err = fmt.Errorf("frame kind %d, want %d", got, kind)
	}
	if err != nil {
		return nil, err
	}
	n.metrics.FramesRecv.Add(1)
	n.metrics.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
	return Unmarshal(body)
}

// listen opens the node's listener: a TCP socket at cfg.ListenAddr, or
// a fresh address of the node's pipes.
func (n *Node) listen() (net.Listener, error) {
	if n.pipes != nil {
		return n.pipes.listen(), nil
	}
	return net.Listen("tcp", n.cfg.ListenAddr)
}

// wrap puts the proc's fault plan, if its mesh has plans, under a conn
// to peer.
func (n *Node) wrap(c net.Conn, peer int) net.Conn {
	if n.pipes == nil || n.pipes.plans == nil {
		return c
	}
	return newFaultConn(c, n.pipes.plans[n.procID], &n.metrics, peer, KindData)
}

// attempts is how many times the dial policy tries one address.
func (c Config) attempts() int {
	if c.DialRetries < 0 {
		return 1
	}
	return 1 + c.DialRetries
}

// dialRetry connects to addr under the node's retry/backoff policy.
func (n *Node) dialRetry(addr string) (net.Conn, error) {
	backoff := NewBackoff(n.cfg.RetryBase, n.cfg.RetryMax, addr)
	var lastErr error
	attempts := n.cfg.attempts()
	for i := 0; i < attempts; i++ {
		if n.closed.Load() {
			return nil, fmt.Errorf("node closed")
		}
		if i > 0 {
			n.metrics.DialRetries.Add(1)
			select {
			case <-time.After(backoff.Next()):
			case <-n.closeCh:
				return nil, fmt.Errorf("node closed")
			}
		}
		n.metrics.Dials.Add(1)
		var c net.Conn
		var err error
		if n.pipes != nil {
			c, err = n.pipes.dial(addr)
		} else {
			c, err = net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
		}
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	n.metrics.DialFailures.Add(1)
	return nil, fmt.Errorf("dial %s failed after %d attempt(s): %w", addr, attempts, lastErr)
}

// ProcID implements Link.
func (n *Node) ProcID() int { return n.procID }

// NumProcs implements Link.
func (n *Node) NumProcs() int { return n.nprocs }

// Metrics implements Link.
func (n *Node) Metrics() *Metrics { return &n.metrics }

// SetDataHandler implements Link.
func (n *Node) SetDataHandler(fn func(*Frame)) { n.dataFn.Store(&fn) }

// SetErrorHandler implements Link.
func (n *Node) SetErrorHandler(fn func(error)) { n.errFn.Store(&fn) }

// SendData implements Link: encode now (no aliasing with the sender's
// buffers) and write on the conn to dst.
func (n *Node) SendData(dst int, f *Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	return n.send(dst, buf, "send to")
}

// send writes one encoded frame to dst.
func (n *Node) send(dst int, buf []byte, what string) error {
	if dst == n.procID || dst < 0 || dst >= n.nprocs {
		return fmt.Errorf("transport: bad destination proc %d (self %d of %d)", dst, n.procID, n.nprocs)
	}
	if err := n.conns[dst].Write(buf); err != nil {
		return connLost(err, dst, what)
	}
	return nil
}

// connLost classifies a failed conn read or write: an injected fault
// keeps its kind, and anything else means the peer's connection is gone
// — peer loss, which supervisors treat as retryable.
func connLost(err error, peer int, what string) error {
	if FaultKindOf(err) != FaultNone {
		return err
	}
	return faultErr(FaultPeerLost, peer, "%s proc %d: %w", what, peer, err)
}

// HostSend implements Link.
func (n *Node) HostSend(dst int, payload any) error {
	c := beginFrame(nil, KindHost)
	c.W.I32(int32(n.procID))
	buf, err := finishFrame(c, nil, payload)
	if err != nil {
		return err
	}
	return n.send(dst, buf, "host send to")
}

// HostRecv implements Link.
func (n *Node) HostRecv() (int, any, error) { return n.host.get() }

// read runs the reader of the conn l: it delivers the peer's data
// frames, dropping a repeated Seq, and queues its host messages. A
// reader that ends on a Bye closes the conn quietly; any other end
// fails the node.
func (n *Node) read(l *Live) {
	var lastSeq uint32 // last Seq delivered
	err := l.Read(func(kind uint8, body []byte) error {
		if kind == KindHost {
			c := recio.Decoder(body)
			src := int(c.R.I32())
			v, err := decodeAny(c)
			if err != nil {
				return faultErr(FaultCorrupt, l.peer, "bad host frame from proc %d: %w", l.peer, err)
			}
			n.host.put(hostMsg{src: src, payload: v})
			return nil
		}
		f, err := DecodeFrame(body)
		if err != nil {
			return faultErr(FaultCorrupt, l.peer, "bad frame from proc %d: %w", l.peer, err)
		}
		if f.Seq != 0 {
			// A faulted conn stamps rising Seqs: a repeat is a duplicate.
			if f.Seq <= lastSeq {
				n.metrics.FaultsDeduped.Add(1)
				return nil
			}
			lastSeq = f.Seq
		}
		fn := n.dataFn.Load()
		if fn == nil {
			// Dropping silently would hang the sender's machine; the
			// cluster protocol's ready barrier makes this unreachable
			// in correct use.
			return fmt.Errorf("transport: proc %d received a data frame from proc %d before a handler was installed", n.procID, l.peer)
		}
		(*fn)(f)
		return nil
	})
	if err == nil {
		n.metrics.ConnsOpen.Add(-1)
		return
	}
	n.fail(err)
}

// fail reports a fatal link error once and poisons the host inbox so
// blocked HostRecv callers unblock.
func (n *Node) fail(err error) {
	if n.closed.Load() {
		return
	}
	n.host.fail(err)
	if fn := n.errFn.Load(); fn != nil {
		(*fn)(err)
	}
}

// Close implements Link: best-effort Bye to every peer, then tear
// everything down.
func (n *Node) Close() error {
	n.shutdown(true, faultErr(FaultClosed, -1, "link closed"))
	return nil
}

// Abort implements Link: tear the node down as if the process had
// crashed. No Bye is sent, so every peer's reader observes a connection
// reset and fails its node — exactly the signal a supervisor needs to
// demolish a faulted machine generation everywhere at once.
func (n *Node) Abort(err error) {
	if err == nil {
		err = faultErr(FaultClosed, -1, "link aborted")
	}
	n.shutdown(false, err)
}

// shutdown tears the node down once, failing the host inbox with err.
func (n *Node) shutdown(bye bool, err error) {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.closeCh)
	n.ln.Close()
	for _, l := range n.conns {
		if l != nil {
			l.Close(bye)
		}
	}
	n.host.fail(err)
	n.wg.Wait()
}
