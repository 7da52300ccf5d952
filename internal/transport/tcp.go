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

// hostInbox is an unbounded FIFO: reader pumps must never block on a
// slow host-side consumer, or data frames queued behind a host message
// on the same connection would stall the simulated machine.
type hostInbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []hostMsg
	failed error
	closed bool
}

func newHostInbox() *hostInbox {
	hi := &hostInbox{}
	hi.cond = sync.NewCond(&hi.mu)
	return hi
}

func (hi *hostInbox) put(m hostMsg) {
	hi.mu.Lock()
	if !hi.closed {
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
	hi.closed = true
	hi.mu.Unlock()
	hi.cond.Broadcast()
}

func (hi *hostInbox) get() (hostMsg, error) {
	hi.mu.Lock()
	defer hi.mu.Unlock()
	for len(hi.queue) == 0 && !hi.closed {
		hi.cond.Wait()
	}
	if len(hi.queue) > 0 {
		m := hi.queue[0]
		hi.queue = hi.queue[1:]
		return m, nil
	}
	if hi.failed != nil {
		return hostMsg{}, hi.failed
	}
	return hostMsg{}, faultErr(FaultClosed, -1, "link closed")
}

// peerConn is one TCP connection to a peer, with a write lock (frames
// must not interleave) and a last-traffic timestamp for liveness.
type peerConn struct {
	peer     int
	conn     net.Conn
	wmu      sync.Mutex
	lastSeen atomic.Int64 // unix nanos of last inbound frame
	said_bye atomic.Bool  // peer announced graceful close
}

func (pc *peerConn) writeFrame(n *Node, buf []byte) error {
	pc.wmu.Lock()
	_, err := pc.conn.Write(buf)
	pc.wmu.Unlock()
	if err == nil {
		n.metrics.FramesSent.Add(1)
		n.metrics.BytesSent.Add(int64(len(buf)))
	}
	return err
}

// dialFuture deduplicates concurrent dials to the same peer.
type dialFuture struct {
	done chan struct{}
	pc   *peerConn
	err  error
}

// Node is the TCP implementation of Link. Proc 0 creates one with
// NewCoordinator and admits workers via WaitWorkers; workers create
// theirs with Join. Connections between peers are dialed lazily on
// first send, with retry and exponential backoff, and identified by an
// Ident frame; each connection runs a reader pump that dispatches data
// frames, host messages, and liveness probes uniformly.
type Node struct {
	cfg     Config
	procID  int
	nprocs  int
	addrs   []string
	ln      net.Listener
	metrics Metrics
	host    *hostInbox

	dataFn atomic.Pointer[func(*Frame)]
	errFn  atomic.Pointer[func(error)]

	mu      sync.Mutex
	out     map[int]*peerConn // dialed by us, keyed by peer proc
	in      []*peerConn       // accepted or handshake conns
	dialing map[int]*dialFuture

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup
}

func newNode(cfg Config) *Node {
	return &Node{
		cfg:     cfg.withDefaults(),
		out:     make(map[int]*peerConn),
		dialing: make(map[int]*dialFuture),
		host:    newHostInbox(),
		closeCh: make(chan struct{}),
	}
}

// NewCoordinator opens the coordinator's listener (proc 0 of an
// eventual nprocs-process machine). Call WaitWorkers to admit the
// remaining procs before any traffic.
func NewCoordinator(cfg Config, nprocs int) (*Node, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("transport: machine needs at least 1 process, got %d", nprocs)
	}
	n := newNode(cfg)
	n.procID = 0
	n.nprocs = nprocs
	ln, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: coordinator listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.ln = ln
	n.addrs = make([]string, nprocs)
	n.addrs[0] = n.advertised()
	return n, nil
}

// Addr returns the address peers dial to reach this node.
func (n *Node) advertised() string {
	if n.cfg.AdvertiseAddr != "" {
		return n.cfg.AdvertiseAddr
	}
	return n.ln.Addr().String()
}

// Addr returns this node's advertised listen address.
func (n *Node) Addr() string { return n.advertised() }

// WaitWorkers blocks until the other nprocs-1 processes have joined,
// assigns them proc IDs in arrival order, and distributes the address
// table. It must complete before the machine exchanges any frames.
func (n *Node) WaitWorkers(timeout time.Duration) error {
	if n.procID != 0 {
		return fmt.Errorf("transport: WaitWorkers is coordinator-only")
	}
	need := n.nprocs - 1
	conns := make([]*peerConn, 0, need)
	if timeout > 0 {
		if tl, ok := n.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Now().Add(timeout))
		}
	}
	for len(conns) < need {
		c, err := n.ln.Accept()
		if err != nil {
			for _, pc := range conns {
				pc.conn.Close()
			}
			return fmt.Errorf("transport: waiting for %d worker(s), have %d: %w",
				need, len(conns), err)
		}
		kind, body, err := ReadRaw(c)
		if err != nil || kind != KindHello {
			c.Close()
			continue
		}
		v, err := Unmarshal(body)
		hello, ok := v.(helloBody)
		if err != nil || !ok {
			c.Close()
			continue
		}
		n.metrics.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
		n.metrics.FramesRecv.Add(1)
		pc := &peerConn{peer: len(conns) + 1, conn: c}
		pc.lastSeen.Store(time.Now().UnixNano())
		n.addrs[pc.peer] = hello.Addr
		conns = append(conns, pc)
	}
	if tl, ok := n.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	// All workers present: complete each handshake, then start pumps.
	for _, pc := range conns {
		buf, err := AppendControl(nil, KindWelcome, welcomeBody{
			ProcID: int32(pc.peer),
			Addrs:  append([]string(nil), n.addrs...),
		})
		if err != nil {
			return err
		}
		if err := pc.writeFrame(n, buf); err != nil {
			return fmt.Errorf("transport: welcome to proc %d: %w", pc.peer, err)
		}
	}
	n.mu.Lock()
	n.in = append(n.in, conns...)
	n.mu.Unlock()
	for _, pc := range conns {
		n.startPump(pc)
	}
	n.metrics.ConnsOpen.Add(int64(len(conns)))
	n.startAccepting()
	n.startHeartbeats()
	return nil
}

// Join connects to a coordinator at addr and returns once the machine
// is fully assembled. The dial itself honors the retry/backoff policy,
// so a worker may be started before its coordinator.
func Join(coordAddr string, cfg Config) (*Node, error) {
	n := newNode(cfg)
	ln, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: worker listen %s: %w", n.cfg.ListenAddr, err)
	}
	n.ln = ln
	conn, err := n.dialRetry(coordAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: join %s: %w", coordAddr, err)
	}
	buf, err := AppendControl(nil, KindHello, helloBody{Addr: n.advertised()})
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, err
	}
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("transport: join %s: hello: %w", coordAddr, err)
	}
	n.metrics.FramesSent.Add(1)
	n.metrics.BytesSent.Add(int64(len(buf)))
	kind, body, err := ReadRaw(conn)
	if err != nil || kind != KindWelcome {
		conn.Close()
		ln.Close()
		if err == nil {
			err = fmt.Errorf("unexpected frame kind %d", kind)
		}
		return nil, fmt.Errorf("transport: join %s: welcome: %w", coordAddr, err)
	}
	v, err := Unmarshal(body)
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("transport: join %s: welcome: %w", coordAddr, err)
	}
	welcome := v.(welcomeBody)
	n.metrics.FramesRecv.Add(1)
	n.metrics.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
	n.procID = int(welcome.ProcID)
	n.addrs = welcome.Addrs
	n.nprocs = len(welcome.Addrs)
	// The join connection doubles as this worker's outbound link to
	// the coordinator: no second dial, and the coordinator already
	// pumps its far end.
	pc := &peerConn{peer: 0, conn: conn}
	pc.lastSeen.Store(time.Now().UnixNano())
	n.out[0] = pc
	n.metrics.ConnsOpen.Add(1)
	n.startPump(pc)
	n.startAccepting()
	n.startHeartbeats()
	return n, nil
}

// dialRetry connects to addr under the node's retry/backoff policy.
func (n *Node) dialRetry(addr string) (net.Conn, error) {
	backoff := NewBackoff(n.cfg.RetryBase, n.cfg.RetryMax, addr)
	var lastErr error
	attempts := 1 + n.cfg.DialRetries
	if n.cfg.DialRetries < 0 {
		attempts = 1
	}
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
		c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
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
// buffers), dial the peer if this is the first frame to it, write.
func (n *Node) SendData(dst int, f *Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	pc, err := n.connFor(dst)
	if err != nil {
		return err
	}
	if err := pc.writeFrame(n, buf); err != nil {
		// A failed write means the peer's connection is gone — classify
		// as peer loss so supervisors treat it as retryable, exactly
		// like a read-side reset.
		return &TransportError{Kind: FaultPeerLost, Proc: dst,
			Err: fmt.Errorf("send to proc %d: %w", dst, err)}
	}
	return nil
}

// HostSend implements Link.
func (n *Node) HostSend(dst int, payload any) error {
	c := beginFrame(nil, KindHost)
	c.W.I32(int32(n.procID))
	buf, err := finishFrame(c, nil, payload)
	if err != nil {
		return err
	}
	pc, err := n.connFor(dst)
	if err != nil {
		return err
	}
	if err := pc.writeFrame(n, buf); err != nil {
		return &TransportError{Kind: FaultPeerLost, Proc: dst,
			Err: fmt.Errorf("host send to proc %d: %w", dst, err)}
	}
	return nil
}

// HostRecv implements Link.
func (n *Node) HostRecv() (int, any, error) {
	m, err := n.host.get()
	if err != nil {
		return -1, nil, err
	}
	return m.src, m.payload, nil
}

// connFor returns the outbound connection to dst, dialing it (once,
// even under concurrent senders) if absent.
func (n *Node) connFor(dst int) (*peerConn, error) {
	if dst == n.procID || dst < 0 || dst >= n.nprocs {
		return nil, fmt.Errorf("transport: bad destination proc %d (self %d of %d)", dst, n.procID, n.nprocs)
	}
	n.mu.Lock()
	if pc := n.out[dst]; pc != nil {
		n.mu.Unlock()
		return pc, nil
	}
	if f := n.dialing[dst]; f != nil {
		n.mu.Unlock()
		<-f.done
		return f.pc, f.err
	}
	fut := &dialFuture{done: make(chan struct{})}
	n.dialing[dst] = fut
	n.mu.Unlock()

	pc, err := n.dialPeer(dst)
	n.mu.Lock()
	delete(n.dialing, dst)
	if err == nil {
		n.out[dst] = pc
	}
	n.mu.Unlock()
	fut.pc, fut.err = pc, err
	close(fut.done)
	return pc, err
}

func (n *Node) dialPeer(dst int) (*peerConn, error) {
	conn, err := n.dialRetry(n.addrs[dst])
	if err != nil {
		// An unreachable peer mid-run is a peer fault (retryable after
		// a machine rebuild), not an application error.
		return nil, &TransportError{Kind: FaultPeerLost, Proc: dst,
			Err: fmt.Errorf("proc %d unreachable: %w", dst, err)}
	}
	pc := &peerConn{peer: dst, conn: conn}
	pc.lastSeen.Store(time.Now().UnixNano())
	buf, err := AppendControl(nil, KindIdent, identBody{Src: int32(n.procID)})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := pc.writeFrame(n, buf); err != nil {
		conn.Close()
		return nil, &TransportError{Kind: FaultPeerLost, Proc: dst,
			Err: fmt.Errorf("ident to proc %d: %w", dst, err)}
	}
	n.metrics.ConnsOpen.Add(1)
	n.startPump(pc)
	return pc, nil
}

// startAccepting launches the listener loop for peer-dialed (Ident)
// connections.
func (n *Node) startAccepting() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := n.ln.Accept()
			if err != nil {
				return // listener closed
			}
			n.wg.Add(1)
			go func(c net.Conn) {
				defer n.wg.Done()
				kind, body, err := ReadRaw(c)
				if err != nil || kind != KindIdent {
					c.Close()
					return
				}
				v, err := Unmarshal(body)
				ident, ok := v.(identBody)
				if err != nil || !ok {
					c.Close()
					return
				}
				n.metrics.FramesRecv.Add(1)
				n.metrics.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
				pc := &peerConn{peer: int(ident.Src), conn: c}
				pc.lastSeen.Store(time.Now().UnixNano())
				n.mu.Lock()
				n.in = append(n.in, pc)
				n.mu.Unlock()
				n.metrics.ConnsOpen.Add(1)
				n.pump(pc)
			}(c)
		}
	}()
}

// startPump runs the reader loop for pc on its own goroutine.
func (n *Node) startPump(pc *peerConn) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.pump(pc)
	}()
}

// pump reads frames from one connection until error or close,
// dispatching uniformly: the same loop serves inbound and outbound
// connections, so pongs on a dialed conn and pings on an accepted one
// both work.
func (n *Node) pump(pc *peerConn) {
	for {
		kind, body, err := ReadRaw(pc.conn)
		if err != nil {
			if n.closed.Load() || pc.said_bye.Load() {
				return
			}
			n.fail(faultErr(FaultPeerLost, pc.peer, "connection to proc %d lost: %w", pc.peer, err))
			return
		}
		pc.lastSeen.Store(time.Now().UnixNano())
		n.metrics.FramesRecv.Add(1)
		n.metrics.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
		switch kind {
		case KindData:
			f, err := DecodeFrame(body)
			if err != nil {
				n.fail(faultErr(FaultCorrupt, pc.peer, "bad frame from proc %d: %w", pc.peer, err))
				return
			}
			fn := n.dataFn.Load()
			if fn == nil {
				// Dropping silently would hang the sender's machine; the
				// cluster protocol's ready barrier makes this unreachable
				// in correct use.
				n.fail(fmt.Errorf("transport: proc %d received a data frame from proc %d before a handler was installed", n.procID, pc.peer))
				return
			}
			(*fn)(f)
		case KindHost:
			c := recio.Decoder(body)
			src := int(c.R.I32())
			v, err := decodeAny(c)
			if err != nil {
				n.fail(faultErr(FaultCorrupt, pc.peer, "bad host frame from proc %d: %w", pc.peer, err))
				return
			}
			n.host.put(hostMsg{src: src, payload: v})
		case KindPing:
			reply, err := AppendControl(nil, KindPong, mustUnmarshalPing(body))
			if err == nil {
				pc.writeFrame(n, reply)
			}
		case KindPong:
			if p, ok := mustUnmarshalPing(body).(pingBody); ok {
				rtt := time.Duration(time.Now().UnixNano() - p.Nanos)
				if rtt > 0 {
					n.metrics.ObserveRTT(rtt.Seconds())
				}
			}
		case KindBye:
			pc.said_bye.Store(true)
			pc.conn.Close()
			n.metrics.ConnsOpen.Add(-1)
			return
		default:
			// Unknown kinds are skipped for forward compatibility.
		}
	}
}

// mustUnmarshalPing decodes a ping/pong body, tolerating corruption by
// returning a zero body (liveness probes are best-effort).
func mustUnmarshalPing(body []byte) any {
	v, err := Unmarshal(body)
	if err != nil {
		return pingBody{}
	}
	return v
}

// startHeartbeats launches the liveness machinery: a probe loop that
// pings every outbound connection each HeartbeatInterval, and a
// staleness watchdog that declares a peer dead once its connection has
// been silent past the liveness deadline. A negative interval disables
// BOTH: with no probes flowing, an idle healthy peer generates no
// inbound traffic at all, so a timeout check on its own would declare
// it dead — the probe is what manufactures the traffic the watchdog
// observes.
func (n *Node) startHeartbeats() {
	if n.cfg.HeartbeatInterval < 0 {
		return
	}
	// The liveness deadline must leave room for at least one full
	// probe round-trip: with a probe interval longer than the
	// configured timeout, a healthy-but-idle peer has had no chance to
	// prove liveness yet when the raw timeout expires.
	deadAfter := n.cfg.HeartbeatTimeout
	if n.cfg.HeartbeatInterval > deadAfter {
		deadAfter = n.cfg.HeartbeatInterval + n.cfg.HeartbeatTimeout
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-n.closeCh:
				return
			case <-t.C:
			}
			now := time.Now()
			for _, pc := range n.outConns() {
				if pc.said_bye.Load() {
					continue
				}
				buf, err := AppendControl(nil, KindPing, pingBody{Nanos: now.UnixNano()})
				if err == nil && pc.writeFrame(n, buf) == nil {
					n.metrics.Heartbeats.Add(1)
				}
			}
		}
	}()
	// Watchdog ticks faster than the deadline so detection latency is a
	// fraction of the timeout, not up to one full probe interval.
	tick := deadAfter / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-n.closeCh:
				return
			case <-t.C:
			}
			now := time.Now()
			for _, pc := range n.outConns() {
				if pc.said_bye.Load() {
					continue
				}
				idle := now.Sub(time.Unix(0, pc.lastSeen.Load()))
				if idle > deadAfter {
					n.fail(faultErr(FaultHeartbeat, pc.peer, "proc %d silent for %v (heartbeat timeout)", pc.peer, idle.Round(time.Millisecond)))
					return
				}
			}
		}
	}()
}

// outConns snapshots the outbound connections under the lock.
func (n *Node) outConns() []*peerConn {
	n.mu.Lock()
	conns := make([]*peerConn, 0, len(n.out))
	for _, pc := range n.out {
		conns = append(conns, pc)
	}
	n.mu.Unlock()
	return conns
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

// Close implements Link: best-effort Bye to every dialed peer, then
// tear everything down.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.closeCh)
	n.mu.Lock()
	outs := make([]*peerConn, 0, len(n.out))
	for _, pc := range n.out {
		outs = append(outs, pc)
	}
	ins := append([]*peerConn(nil), n.in...)
	n.mu.Unlock()
	if buf, err := AppendControl(nil, KindBye, nil); err == nil {
		// Bye goes on every live conn, inbound included: a peer that
		// dialed us still has a pump on that socket, and a bare close
		// would read as a transport failure there.
		for _, pc := range append(outs, ins...) {
			pc.conn.SetWriteDeadline(time.Now().Add(time.Second))
			pc.writeFrame(n, buf)
		}
	}
	if n.ln != nil {
		n.ln.Close()
	}
	for _, pc := range outs {
		pc.conn.Close()
	}
	for _, pc := range ins {
		pc.conn.Close()
	}
	n.host.fail(faultErr(FaultClosed, -1, "link closed"))
	n.wg.Wait()
	return nil
}

// Abort implements Link: tear the node down as if the process had
// crashed. No Bye is sent, so every peer's pump observes a connection
// reset and fails its node — exactly the signal a supervisor needs to
// demolish a faulted machine generation everywhere at once.
func (n *Node) Abort(err error) {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	if err == nil {
		err = faultErr(FaultClosed, -1, "link aborted")
	}
	close(n.closeCh)
	n.mu.Lock()
	conns := make([]*peerConn, 0, len(n.out)+len(n.in))
	for _, pc := range n.out {
		conns = append(conns, pc)
	}
	conns = append(conns, n.in...)
	n.mu.Unlock()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, pc := range conns {
		pc.conn.Close()
	}
	n.host.fail(err)
	n.wg.Wait()
}
