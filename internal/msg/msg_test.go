package msg

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// run executes body on a fresh p-processor ideal machine.
func run(t *testing.T, p int, body func(*Proc)) []Stats {
	t.Helper()
	m := NewMachine(p, Ideal())
	return m.Run(body)
}

func TestPointToPoint(t *testing.T) {
	run(t, 2, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, "hello", 1)
		} else {
			data, from := p.Recv(0, 7)
			if data.(string) != "hello" || from != 0 {
				t.Errorf("got %v from %d", data, from)
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	// Messages with unexpected tags must not satisfy a Recv for another
	// tag, regardless of arrival order.
	run(t, 2, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, "first", 1)
			p.Send(1, 2, "second", 1)
		} else {
			data, _ := p.Recv(0, 2)
			if data.(string) != "second" {
				t.Errorf("tag 2 returned %v", data)
			}
			data, _ = p.Recv(0, 1)
			if data.(string) != "first" {
				t.Errorf("tag 1 returned %v", data)
			}
		}
	})
}

func TestAnySourceRecv(t *testing.T) {
	run(t, 4, func(p *Proc) {
		if p.ID() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				_, from := p.Recv(AnySource, 5)
				seen[from] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources seen: %v", seen)
			}
		} else {
			p.Send(0, 5, p.ID(), 1)
		}
	})
}

func TestSelfSend(t *testing.T) {
	run(t, 1, func(p *Proc) {
		p.Send(0, 1, "loop", 2)
		data, from := p.Recv(0, 1)
		if data.(string) != "loop" || from != 0 {
			t.Errorf("self-send returned %v from %d", data, from)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	// A counter incremented before the barrier must be complete at every
	// processor after it.
	var before int64
	run(t, 8, func(p *Proc) {
		atomic.AddInt64(&before, 1)
		p.Barrier()
		if v := atomic.LoadInt64(&before); v != 8 {
			t.Errorf("proc %d saw %d pre-barrier increments", p.ID(), v)
		}
	})
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		for root := 0; root < n; root += 1 + n/3 {
			m := NewMachine(n, Ideal())
			m.Run(func(p *Proc) {
				var payload any
				if p.ID() == root {
					payload = fmt.Sprintf("from-%d", root)
				}
				got := p.Bcast(root, payload, 1)
				if got.(string) != fmt.Sprintf("from-%d", root) {
					t.Errorf("n=%d root=%d proc=%d got %v", n, root, p.ID(), got)
				}
			})
		}
	}
}

func TestAllGatherAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		m := NewMachine(n, Ideal())
		m.Run(func(p *Proc) {
			got := p.AllGather(p.ID()*10, 1)
			if len(got) != n {
				t.Errorf("n=%d: AllGather returned %d items", n, len(got))
				return
			}
			for r, v := range got {
				if v.(int) != r*10 {
					t.Errorf("n=%d proc=%d: rank %d item = %v", n, p.ID(), r, v)
				}
			}
		})
	}
}

func TestAllToAllAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 11} {
		m := NewMachine(n, Ideal())
		m.Run(func(p *Proc) {
			payloads := make([]any, n)
			words := make([]int, n)
			for i := range payloads {
				payloads[i] = p.ID()*1000 + i
				words[i] = 1
			}
			got := p.AllToAll(payloads, words)
			for src, v := range got {
				if v.(int) != src*1000+p.ID() {
					t.Errorf("n=%d proc %d: from %d got %v", n, p.ID(), src, v)
				}
			}
		})
	}
}

func TestAllReduceSumAndMax(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8} {
		m := NewMachine(n, Ideal())
		m.Run(func(p *Proc) {
			x := []float64{float64(p.ID()), 1, float64(-p.ID())}
			sum := p.SumF64(x)
			wantSum := float64(n*(n-1)) / 2
			if sum[0] != wantSum || sum[1] != float64(n) || sum[2] != -wantSum {
				t.Errorf("n=%d: sum = %v", n, sum)
			}
			mx := p.MaxF64([]float64{float64(p.ID())})
			if mx[0] != float64(n-1) {
				t.Errorf("n=%d: max = %v", n, mx)
			}
		})
	}
}

// TestAllReduceFoldsInRankOrder: off a power of two, AllReduceF64 gathers
// at rank 0. Folding the values in host arrival order made a sum of
// non-integers depend on goroutine scheduling; folded in rank order, the
// sum and rank 0's clock are one bit pattern whatever the host does.
func TestAllReduceFoldsInRankOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{3, 5, 7} {
		seen := map[string]bool{}
		for run := 0; run < 200; run++ {
			var sum float64
			m := NewMachine(n, CM5())
			stats := m.Run(func(p *Proc) {
				p.Compute(float64(p.ID()+1) * 1e5)
				s := p.SumF64([]float64{0.1 * float64(p.ID()+1) / 3})
				if p.ID() == 0 {
					sum = s[0]
				}
			})
			seen[fmt.Sprintf("%x %+v", math.Float64bits(sum), stats[0])] = true
		}
		if len(seen) != 1 {
			t.Errorf("p=%d: %d distinct (sum, rank-0 stats) in 200 runs", n, len(seen))
		}
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Sequenced tags keep consecutive collectives from stealing each
	// other's messages even when processors race ahead.
	run(t, 8, func(p *Proc) {
		for i := 0; i < 20; i++ {
			got := p.AllGather(p.ID()+i, 1)
			for r, v := range got {
				if v.(int) != r+i {
					t.Fatalf("round %d rank %d: %v", i, r, v)
				}
			}
			p.Barrier()
			sum := p.SumF64([]float64{1})
			if sum[0] != 8 {
				t.Fatalf("round %d sum=%v", i, sum)
			}
		}
	})
}

func TestSimulatedClockAdvances(t *testing.T) {
	m := NewMachine(2, NCube2())
	stats := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(2e6) // 1 second of compute at 2 Mflop/s
			p.Send(1, 1, "x", 100)
		} else {
			p.Recv(0, 1)
			if p.Now() < 1.0 {
				t.Errorf("receiver clock %v did not wait for sender", p.Now())
			}
		}
	})
	if stats[0].ComputeTime < 0.99 || stats[0].ComputeTime > 1.01 {
		t.Errorf("compute time = %v", stats[0].ComputeTime)
	}
	if stats[0].Messages != 1 || stats[0].Words != 100 {
		t.Errorf("message accounting: %+v", stats[0])
	}
	// Receiver's comm time includes the wait for the sender's compute.
	if stats[1].CommTime < 0.99 {
		t.Errorf("receiver comm time = %v", stats[1].CommTime)
	}
}

func TestTransferTimeModel(t *testing.T) {
	c := NCube2()
	// Cut-through: ts + th·hops + tw·m.
	got := c.TransferTime(10, 3)
	want := c.TS + 3*c.TH + 10*c.TW
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("cut-through = %v, want %v", got, want)
	}
	c.StoreAndForward = true
	got = c.TransferTime(10, 3)
	want = 3 * (c.TS + 10*c.TW)
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("store-and-forward = %v, want %v", got, want)
	}
}

func TestHops(t *testing.T) {
	hc := NCube2()
	if hc.Hops(0, 0, 16) != 0 {
		t.Fatal("self hops != 0")
	}
	if hc.Hops(0b0000, 0b1111, 16) != 4 {
		t.Fatalf("hypercube hops = %d", hc.Hops(0, 15, 16))
	}
	ft := CM5()
	if h := ft.Hops(0, 255, 256); h != 2*4 {
		t.Fatalf("fat-tree hops for p=256: %d", h)
	}
	if h := ft.Hops(0, 3, 4); h != 2 {
		t.Fatalf("fat-tree hops for p=4: %d", h)
	}
}

func TestMaxTimeAndTotals(t *testing.T) {
	stats := []Stats{
		{ComputeTime: 1, CommTime: 0.5, Messages: 3, Words: 30},
		{ComputeTime: 0.2, CommTime: 2, Messages: 1, Words: 5},
	}
	if MaxTime(stats) != 2.2 {
		t.Fatalf("MaxTime = %v", MaxTime(stats))
	}
	if TotalWords(stats) != 35 || TotalMessages(stats) != 4 {
		t.Fatal("totals wrong")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := NewMachine(4, NCube2())
	m.Run(func(p *Proc) {
		if p.ID() == 2 {
			p.Compute(10e6) // 5 seconds
		}
		t0 := p.GlobalMaxTime()
		if t0 < 5.0 {
			t.Errorf("proc %d: global time %v below slowest proc", p.ID(), t0)
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	m := NewMachine(4, Ideal())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	m.Run(func(p *Proc) {
		if p.ID() == 3 {
			panic("boom")
		}
		// Peers block in Recv and must be released by the panic path.
		p.Recv(AnySource, 1)
	})
}

func TestMachineReusableAfterRun(t *testing.T) {
	m := NewMachine(4, Ideal())
	for i := 0; i < 3; i++ {
		m.Run(func(p *Proc) {
			got := p.AllGather(p.ID(), 1)
			if len(got) != 4 {
				t.Errorf("run %d: %v", i, got)
			}
		})
	}
}

func TestSendValidation(t *testing.T) {
	m := NewMachine(2, Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination accepted")
		}
	}()
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(5, 1, nil, 0)
		}
	})
}

func TestDeterministicClocksAcrossRuns(t *testing.T) {
	// The simulated clock depends only on the communication pattern, not
	// on goroutine scheduling: two identical runs give identical times.
	times := make([][]float64, 2)
	for trial := 0; trial < 2; trial++ {
		m := NewMachine(8, NCube2())
		ts := make([]float64, 8)
		m.Run(func(p *Proc) {
			// Deterministic ring pattern with compute.
			p.Compute(float64(p.ID()+1) * 1e5)
			next := (p.ID() + 1) % 8
			p.Send(next, 1, p.ID(), 10)
			p.Recv((p.ID()+7)%8, 1)
			p.Barrier()
			ts[p.ID()] = p.Now()
		})
		times[trial] = ts
	}
	for i := range times[0] {
		if times[0][i] != times[1][i] {
			t.Fatalf("proc %d: %v vs %v", i, times[0][i], times[1][i])
		}
	}
}

func TestAllGatherVolumeScalesWithP(t *testing.T) {
	// All-to-all broadcast moves Θ(p·m) words per processor in total;
	// total volume grows superlinearly with p.
	vol := func(p int) int64 {
		m := NewMachine(p, NCube2())
		stats := m.Run(func(pr *Proc) { pr.AllGather(0, 10) })
		return TotalWords(stats)
	}
	v4, v16 := vol(4), vol(16)
	if v16 <= 4*v4 {
		t.Fatalf("volume did not scale: p=4 %d words, p=16 %d words", v4, v16)
	}
}

func TestStatsSorted(t *testing.T) {
	// Sanity: Run returns stats indexed by rank (spot-check via distinct
	// compute loads).
	m := NewMachine(4, Ideal())
	stats := m.Run(func(p *Proc) {
		p.Compute(float64(p.ID()) * 1e6)
	})
	flops := make([]float64, 4)
	for i, s := range stats {
		flops[i] = s.Flops
	}
	if !sort.Float64sAreSorted(flops) {
		t.Fatalf("stats not rank-indexed: %v", flops)
	}
}
