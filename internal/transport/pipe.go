package transport

import (
	"fmt"
	"net"
	"sync"
)

// pipeNet stands in for the host's TCP stack inside one OS process:
// listeners keyed by address, and dials that hand one end of a net.Pipe
// to the listener at that address. It also holds every proc's fault
// plan, so a node wraps each conn it gets in its own plan's FaultConn.
type pipeNet struct {
	plans []FaultPlan // by proc; nil injects nothing

	mu  sync.Mutex
	lns map[string]*pipeListener
}

func (pn *pipeNet) listen() *pipeListener {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	l := &pipeListener{addr: &net.UnixAddr{Net: "pipe", Name: fmt.Sprintf("pipe:%d", len(pn.lns))},
		conns: make(chan net.Conn), done: make(chan struct{})}
	pn.lns[l.addr.Name] = l
	return l
}

func (pn *pipeNet) dial(addr string) (net.Conn, error) {
	pn.mu.Lock()
	l := pn.lns[addr]
	pn.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("dial %s: no such listener", addr)
	}
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("dial %s: %w", addr, net.ErrClosed)
	}
}

// pipeListener is the net.Listener of a pipeNet address.
type pipeListener struct {
	addr  *net.UnixAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// NewMesh assembles an n-process machine inside this OS process: n
// Nodes joined by the coordinator handshake over in-memory pipes, one
// pipe per pair of nodes, proc 0 the coordinator. The workers join
// concurrently, since each waits for its higher-numbered peers to dial
// it. plans, when not nil, holds one FaultPlan per proc, injected by a
// FaultConn under each of that proc's conns. Heartbeats are off (a pipe
// cannot go silent) and a dial is tried once (a pipe dial fails only
// when the peer is gone). The pipes cannot fail the handshake short of
// a bug, so NewMesh panics instead of returning an error. Close (or
// Abort) every node when done.
func NewMesh(n int, plans []FaultPlan) []*Node {
	if plans != nil && len(plans) != n {
		panic(fmt.Sprintf("transport: %d fault plans for a %d-process mesh", len(plans), n))
	}
	pn := &pipeNet{plans: plans, lns: make(map[string]*pipeListener)}
	cfg := Config{HeartbeatInterval: -1, DialRetries: -1}
	coord, err := newCoordinator(cfg, n, pn)
	if err != nil {
		panic(err)
	}
	joined := make(chan *Node, n-1)
	for i := 1; i < n; i++ {
		go func() {
			node, err := join(coord.Addr(), cfg, pn)
			if err != nil {
				panic(err)
			}
			joined <- node
		}()
	}
	if err := coord.WaitWorkers(0); err != nil {
		panic(err)
	}
	nodes := make([]*Node, n)
	nodes[0] = coord
	for i := 1; i < n; i++ {
		node := <-joined
		nodes[node.ProcID()] = node
	}
	return nodes
}
