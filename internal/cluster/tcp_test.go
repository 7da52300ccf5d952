package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/parbh"
	"repro/internal/transport"
)

// tcpResults runs the job across procs real TCP nodes on loopback —
// the same wiring as meshResults, but every frame crosses a socket.
func tcpResults(t *testing.T, job Job, procs int) []*parbh.Result {
	t.Helper()
	coord, err := transport.NewCoordinator(transport.Config{ListenAddr: "127.0.0.1:0"}, procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 1; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node, err := transport.Join(coord.Addr(), transport.Config{ListenAddr: "127.0.0.1:0"})
			if err != nil {
				t.Error(err)
				return
			}
			defer node.Close()
			if err := Serve(node, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	if err := coord.WaitWorkers(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(coord)
	if err != nil {
		t.Fatal(err)
	}
	var out []*parbh.Result
	_, err = c.Run(job, func(step int, res *parbh.Result) bool {
		out = append(out, res)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return out
}

// TestCrossTransportGoldenDPDAOverTCP is the mesh golden test on real
// sockets: a DPDA job — data shipping, then function shipping — split over
// three processes worth of TCP nodes yields bit-identical simulated time,
// stats, comm volumes, and accelerations to the in-proc machine.
func TestCrossTransportGoldenDPDAOverTCP(t *testing.T) {
	for _, ship := range []parbh.Shipping{parbh.DataShipping, parbh.FunctionShipping} {
		cfg := parbh.Config{
			Scheme:   parbh.DPDA,
			Mode:     parbh.ForceMode,
			Shipping: ship,
			Alpha:    0.67,
			Eps:      0.01,
		}
		job, _ := testJob(cfg, 2)
		want := inprocResults(t, job)
		got := tcpResults(t, job, 3)
		if len(got) != len(want) {
			t.Fatalf("%v: %d steps over TCP, want %d", ship, len(got), len(want))
		}
		for i := range want {
			compareBitIdentical(t, want[i], got[i], i)
		}
	}
}
