package msg

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// scattered deals six ranks over three processes out of order, so that no
// process's ranks are a contiguous run and process 0 does not host rank 0.
var scattered = []int32{2, 0, 1, 0, 2, 1}

const ringTag = 3

// netMachines builds one network machine per process of an in-memory mesh,
// all of them before any rank sends.
func netMachines(t *testing.T, owner []int32, epoch uint32) ([]*transport.Node, []*Machine) {
	t.Helper()
	nodes := transport.NewMesh(3, nil)
	var ms []*Machine
	for _, node := range nodes {
		t.Cleanup(func() { node.Close() })
		ms = append(ms, NewNetworkMachine(node, owner, epoch, CM5()))
	}
	return nodes, ms
}

// ring has every rank compute, pass a value to its right neighbour and
// record what its left neighbour passed it.
func ring(got []int) func(*Proc) {
	return func(p *Proc) {
		n := p.NumProcs()
		p.Compute(float64(1000 * (p.ID() + 1)))
		p.Send((p.ID()+1)%n, ringTag, 10*p.ID()+1, 1+p.ID())
		v, _ := p.Recv((p.ID()+n-1)%n, ringTag)
		got[p.ID()] = v.(int)
	}
}

// TestNetworkMachineDropsStaleEpoch sends a frame stamped with another
// epoch straight through a node before the step: it matches the first Recv
// of its destination rank, so only the epoch check keeps it out of the
// mailbox. The run must equal the in-process one, values and clocks alike.
func TestNetworkMachineDropsStaleEpoch(t *testing.T) {
	p := len(scattered)
	want := make([]int, p)
	wantStats := NewMachine(p, CM5()).Run(ring(want))

	const epoch = 7
	nodes, ms := netMachines(t, scattered, epoch)
	// Rank 0 (process 2) feeds rank 1 (process 0): the stale frame goes
	// down the conn the real one takes, ahead of it.
	stale := &transport.Frame{Epoch: epoch + 1, Src: 0, Dst: 1, Tag: ringTag, Words: 1, Payload: -1}
	if err := nodes[scattered[0]].SendData(int(scattered[1]), stale); err != nil {
		t.Fatal(err)
	}

	got := make([]int, p)
	stats := make([]Stats, p)
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := m.RunErr(ring(got))
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range m.LocalRanks() {
				stats[r] = st[r]
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("received %v, in-process run received %v", got, want)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats %+v, in-process run %+v", stats, wantStats)
	}
}

// TestNetworkMachineFailsMisroutedFrame delivers a frame for a rank that
// the receiving process does not host: its ranks must unwind with the
// misrouting error rather than wait for a message that never comes.
func TestNetworkMachineFailsMisroutedFrame(t *testing.T) {
	const epoch = 1
	nodes, ms := netMachines(t, scattered, epoch)
	// Rank 2 lives on process 1; send its frame to process 0.
	f := &transport.Frame{Epoch: epoch, Src: 0, Dst: 2, Tag: ringTag, Words: 1, Payload: 5}
	if err := nodes[2].SendData(0, f); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ms[0].RunErr(func(p *Proc) { p.Recv(AnySource, ringTag) })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "misrouted") {
			t.Fatalf("RunErr = %v, want a misrouting error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a misrouted frame left the machine waiting")
	}
}

// TestNetworkMachineOwnerTable reads each process's ranks and the
// processes' leaders off an owner table that is not in contiguous runs.
func TestNetworkMachineOwnerTable(t *testing.T) {
	_, ms := netMachines(t, scattered, 0)
	local := [][]int{{1, 3}, {2, 5}, {0, 4}}
	for proc, m := range ms {
		if !reflect.DeepEqual(m.LocalRanks(), local[proc]) {
			t.Errorf("process %d: LocalRanks %v, want %v", proc, m.LocalRanks(), local[proc])
		}
		if m.Leader() != local[proc][0] {
			t.Errorf("process %d: Leader %d, want %d", proc, m.Leader(), local[proc][0])
		}
		if want := []int{1, 2, 0}; !reflect.DeepEqual(m.Leaders(), want) {
			t.Errorf("process %d: Leaders %v, want %v", proc, m.Leaders(), want)
		}
		for r, o := range scattered {
			if m.IsLocal(r) != (int(o) == proc) {
				t.Errorf("process %d: IsLocal(%d) = %v", proc, r, m.IsLocal(r))
			}
		}
	}
}
