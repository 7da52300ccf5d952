package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// freePort reserves a loopback port and releases it: the window between
// close and reuse is tolerable in tests and avoids hardcoded ports.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestDialRetryExhaustion pins the acceptance criterion for a dead dial
// target: Join retries with backoff, then returns a clear error naming
// the attempt count — it must not hang.
func TestDialRetryExhaustion(t *testing.T) {
	addr := freePort(t) // nothing listens here
	type result struct {
		node *Node
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		n, err := Join(addr, Config{
			ListenAddr:  "127.0.0.1:0",
			DialRetries: 2,
			RetryBase:   5 * time.Millisecond,
			RetryMax:    20 * time.Millisecond,
			DialTimeout: 250 * time.Millisecond,
		})
		ch <- result{n, err}
	}()
	select {
	case r := <-ch:
		if r.err == nil {
			r.node.Close()
			t.Fatal("Join to a dead address succeeded")
		}
		if !strings.Contains(r.err.Error(), "attempt") {
			t.Fatalf("err = %v, want an attempt-count message", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Join hung instead of exhausting its retry budget")
	}
}

// TestDialRetryDelayedListener: a worker that starts before its
// coordinator joins successfully once the listener comes up, recording
// the retries it needed.
func TestDialRetryDelayedListener(t *testing.T) {
	addr := freePort(t)
	type joined struct {
		node *Node
		err  error
	}
	ch := make(chan joined, 1)
	go func() {
		n, err := Join(addr, Config{
			ListenAddr:  "127.0.0.1:0",
			DialRetries: 40,
			RetryBase:   25 * time.Millisecond,
			RetryMax:    100 * time.Millisecond,
		})
		ch <- joined{n, err}
	}()
	time.Sleep(300 * time.Millisecond) // let the worker fail a dial or two
	coord, err := NewCoordinator(Config{ListenAddr: addr}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.WaitWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	j := <-ch
	if j.err != nil {
		t.Fatal(j.err)
	}
	defer j.node.Close()
	if j.node.ProcID() != 1 || j.node.NumProcs() != 2 {
		t.Fatalf("joined as proc %d of %d, want 1 of 2", j.node.ProcID(), j.node.NumProcs())
	}
	if got := j.node.Metrics().Snapshot().DialRetries; got == 0 {
		t.Error("worker joined without recording any dial retries despite the delayed listener")
	}
	// Prove the link is live both ways on the host channel.
	if err := coord.HostSend(1, "ping"); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := j.node.HostRecv(); err != nil || payload != "ping" {
		t.Fatalf("worker HostRecv = %v, %v", payload, err)
	}
	if err := j.node.HostSend(0, "pong"); err != nil {
		t.Fatal(err)
	}
	if src, payload, err := coord.HostRecv(); err != nil || payload != "pong" || src != 1 {
		t.Fatalf("coordinator HostRecv = %d, %v, %v", src, payload, err)
	}
}

// TestTCPDataFrameDelivery exchanges data frames across a real socket
// pair and checks the transport metrics move.
func TestTCPDataFrameDelivery(t *testing.T) {
	coord, err := NewCoordinator(Config{ListenAddr: "127.0.0.1:0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	type joined struct {
		node *Node
		err  error
	}
	ch := make(chan joined, 1)
	go func() {
		n, err := Join(coord.Addr(), Config{ListenAddr: "127.0.0.1:0"})
		ch <- joined{n, err}
	}()
	if err := coord.WaitWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	j := <-ch
	if j.err != nil {
		t.Fatal(j.err)
	}
	defer j.node.Close()

	got := make(chan *Frame, 1)
	j.node.SetDataHandler(func(f *Frame) { got <- f })
	payload := []float64{1, 2, 3}
	f := &Frame{Epoch: 1, Src: 0, Dst: 4, Tag: 17, Words: 3, Arrival: 2.5, Payload: payload}
	if err := coord.SendData(1, f); err != nil {
		t.Fatal(err)
	}
	// The frame was encoded at send time: mutating the sender's buffer
	// now must not reach the receiver (the aliasing guarantee on the
	// real wire).
	payload[0] = -1
	select {
	case rf := <-got:
		if rf.Src != 0 || rf.Dst != 4 || rf.Tag != 17 || rf.Words != 3 || rf.Arrival != 2.5 {
			t.Fatalf("frame header = %+v", rf)
		}
		if p := rf.Payload.([]float64); p[0] != 1 {
			t.Fatalf("receiver saw sender's post-send mutation: %v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("data frame never delivered")
	}
	m := coord.Metrics().Snapshot()
	if m.FramesSent == 0 || m.BytesSent == 0 {
		t.Errorf("coordinator metrics did not record the send: %+v", m)
	}
}

// tcpMachine assembles a p-process machine over loopback TCP, its
// workers joining concurrently, closed when the test ends.
func tcpMachine(t *testing.T, p int) []*Node {
	t.Helper()
	coord, err := NewCoordinator(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, p)
	nodes[0] = coord
	joined := make(chan *Node, p-1)
	errs := make(chan error, p-1)
	for i := 1; i < p; i++ {
		go func() {
			n, err := Join(coord.Addr(), Config{})
			if err != nil {
				errs <- err
				return
			}
			joined <- n
		}()
	}
	if err := coord.WaitWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < p; i++ {
		select {
		case n := <-joined:
			nodes[n.ProcID()] = n
		case err := <-errs:
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// TestOneConnPerPair: a p-process machine, over TCP and over NewMesh,
// opens exactly one conn per pair of nodes during assembly — p(p-1)/2
// dials in all — and opens none once every pair has traded data and
// host frames both ways.
func TestOneConnPerPair(t *testing.T) {
	machines := map[string]func(t *testing.T, p int) []*Node{
		"tcp": tcpMachine,
		"mesh": func(t *testing.T, p int) []*Node {
			nodes := NewMesh(p, nil)
			t.Cleanup(func() {
				for _, n := range nodes {
					n.Close()
				}
			})
			return nodes
		},
	}
	for _, name := range []string{"tcp", "mesh"} {
		for p := 2; p <= 4; p++ {
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				nodes := machines[name](t, p)
				conns := func(when string) {
					t.Helper()
					var dials int64
					for _, n := range nodes {
						m := n.Metrics().Snapshot()
						if m.ConnsOpen != int64(p-1) {
							t.Errorf("%s: proc %d has %d conns open, want %d", when, n.ProcID(), m.ConnsOpen, p-1)
						}
						dials += m.Dials
					}
					if want := int64(p * (p - 1) / 2); dials != want {
						t.Errorf("%s: the nodes dialed %d times, want %d", when, dials, want)
					}
				}
				conns("after assembly")
				got := make(chan *Frame, p*p)
				for _, n := range nodes {
					n.SetDataHandler(func(f *Frame) { got <- f })
				}
				for _, n := range nodes {
					for dst := range nodes {
						if dst == n.ProcID() {
							continue
						}
						if err := n.SendData(dst, &Frame{Src: int32(n.ProcID()), Dst: int32(dst), Payload: []float64{1}}); err != nil {
							t.Fatal(err)
						}
						if err := n.HostSend(dst, "hi"); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, n := range nodes {
					for range p - 1 {
						if _, payload, err := n.HostRecv(); err != nil || payload != "hi" {
							t.Fatalf("proc %d HostRecv = %v, %v", n.ProcID(), payload, err)
						}
					}
				}
				for range p * (p - 1) {
					select {
					case <-got:
					case <-time.After(10 * time.Second):
						t.Fatal("a data frame was never delivered")
					}
				}
				conns("after traffic")
			})
		}
	}
}

// TestAbortReachesEveryPeer: every pair of nodes is joined from
// assembly on, so an aborted node fails every peer's host channel with
// a peer loss, including peers it never traded a frame with.
func TestAbortReachesEveryPeer(t *testing.T) {
	nodes := NewMesh(3, nil)
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	nodes[2].Abort(nil)
	for _, n := range nodes[:2] {
		done := make(chan error, 1)
		go func() {
			_, _, err := n.HostRecv()
			done <- err
		}()
		select {
		case err := <-done:
			if FaultKindOf(err) != FaultPeerLost {
				t.Fatalf("proc %d HostRecv after proc 2 aborted = %v, want a peer loss", n.ProcID(), err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("proc %d never saw proc 2 abort", n.ProcID())
		}
	}
}
