package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/transport"
)

// TransportTable benchmarks the point-to-point transport layer with an
// echo exchange between two Nodes: over the in-memory pipes of a
// NewMesh machine (the codec and the node's pumps without sockets) and
// over a real TCP pair on loopback. Everything
// here is host-clock measurement — by the two-clock rule the simulated
// time, interaction counts, and communication volumes of an engine run
// are bit-identical on every transport, so this table is where the real
// cost of the wire shows up, and nowhere else.
func TransportTable(opt Options) (Table, error) {
	t := Table{
		ID:    "transport",
		Title: "Transport echo between two nodes (host clock, not simulated time)",
		Columns: []string{
			"transport", "frame B", "round trips", "frames/s", "MB/s", "RTT p50", "RTT p99",
		},
		Notes: []string{
			"pipe rows run two nodes over in-memory pipes, tcp rows over loopback sockets; the same Node code on both",
			"the two-clock rule: simulated metrics are transport-independent; only these host-side rates differ between pipe and tcp",
		},
	}
	const iters = 1000
	for _, words := range []int{64, 4096} {
		nodes := transport.NewMesh(2, nil)
		row, err := echoRow("pipe", nodes[0], nodes[1], words, iters)
		nodes[0].Close()
		nodes[1].Close()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	for _, words := range []int{64, 4096} {
		a, b, cleanup, err := tcpPair()
		if err != nil {
			return Table{}, err
		}
		row, err := echoRow("tcp", a, b, words, iters)
		cleanup()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// tcpPair assembles a two-process transport inside this process: a
// coordinator listening on an ephemeral loopback port and one joined
// worker, connected through real sockets.
func tcpPair() (a, b transport.Link, cleanup func(), err error) {
	coord, err := transport.NewCoordinator(transport.Config{ListenAddr: "127.0.0.1:0"}, 2)
	if err != nil {
		return nil, nil, nil, err
	}
	type joined struct {
		node *transport.Node
		err  error
	}
	ch := make(chan joined, 1)
	go func() {
		n, err := transport.Join(coord.Addr(), transport.Config{ListenAddr: "127.0.0.1:0"})
		ch <- joined{n, err}
	}()
	if err := coord.WaitWorkers(10 * time.Second); err != nil {
		coord.Close()
		return nil, nil, nil, err
	}
	j := <-ch
	if j.err != nil {
		coord.Close()
		return nil, nil, nil, j.err
	}
	return coord, j.node, func() { coord.Close(); j.node.Close() }, nil
}

// echoRow ping-pongs one frame between a (proc 0) and b (proc 1),
// measuring round-trip latency percentiles and sustained frame/byte
// rates.
func echoRow(name string, a, b transport.Link, words, iters int) ([]string, error) {
	done := make(chan struct{}, 1)
	b.SetDataHandler(func(f *transport.Frame) {
		b.SendData(0, f)
	})
	a.SetDataHandler(func(f *transport.Frame) {
		select {
		case done <- struct{}{}:
		default:
		}
	})
	payload := make([]float64, words)
	for i := range payload {
		payload[i] = float64(i)
	}
	f := &transport.Frame{Src: 0, Dst: 1, Tag: 1, Words: int32(words), Payload: payload}
	buf, err := transport.AppendFrame(nil, f)
	if err != nil {
		return nil, err
	}
	frameBytes := len(buf)
	rtts := make([]float64, iters)
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := a.SendData(1, f); err != nil {
			return nil, err
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("transport echo over %s timed out at round trip %d", name, i)
		}
		rtts[i] = time.Since(t0).Seconds()
	}
	elapsed := time.Since(start).Seconds()
	sort.Float64s(rtts)
	frames := float64(2 * iters)
	return []string{
		name,
		fmt.Sprintf("%d", frameBytes),
		fmt.Sprintf("%d", iters),
		fmt.Sprintf("%.0f", frames/elapsed),
		fmt.Sprintf("%.2f", frames*float64(frameBytes)/elapsed/1e6),
		fmtDur(rtts[iters/2]),
		fmtDur(rtts[(iters*99)/100]),
	}, nil
}

// fmtDur renders a duration in seconds with µs resolution.
func fmtDur(sec float64) string {
	return time.Duration(sec * 1e9).Round(time.Microsecond).String()
}
