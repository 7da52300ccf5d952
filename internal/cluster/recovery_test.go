package cluster

import (
	"context"
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/parbh"
	"repro/internal/transport"
)

// chaosSeed offsets every fault plan's RNG seed; the CI chaos matrix
// sweeps CHAOS_SEED across fault schedules. Any seed must converge to
// the bit-identical golden — the invariant holds for every schedule,
// not for one blessed fixture.
var chaosSeed = func() int64 {
	v, _ := strconv.ParseInt(os.Getenv("CHAOS_SEED"), 10, 64)
	return v
}()

// chaosHarness builds a Supervisor whose assembler constructs a fresh
// in-memory mesh per machine generation, every proc's conns faulted by
// the plan chosen for it by plans(generation). Worker goroutines
// Serve each generation and unwind when it dies — faulted generations
// end their Serve with an error, which is the point.
type chaosHarness struct {
	procs int
	plans func(gen int) []transport.FaultPlan

	mu    sync.Mutex
	gens  int
	nodes [][]*transport.Node
	wg    sync.WaitGroup

	sup *Supervisor
}

func newChaosHarness(procs int, plans func(gen int) []transport.FaultPlan) *chaosHarness {
	h := &chaosHarness{procs: procs, plans: plans}
	h.sup = NewSupervisor(func() (*Coordinator, error) {
		h.mu.Lock()
		gen := h.gens
		h.gens++
		h.mu.Unlock()
		nodes := transport.NewMesh(procs, plans(gen))
		h.mu.Lock()
		h.nodes = append(h.nodes, nodes)
		h.mu.Unlock()
		for p := 1; p < procs; p++ {
			h.wg.Add(1)
			go func(link transport.Link) {
				defer h.wg.Done()
				// Mirror ServeLoop: Abort on failure so peers observe
				// the death instead of blocking on missing frames.
				if err := Serve(link, nil); err != nil {
					link.Abort(err)
				} else {
					link.Close()
				}
			}(nodes[p])
		}
		return NewCoordinator(nodes[0])
	})
	h.sup.MaxRetries = 5
	h.sup.BackoffBase = time.Millisecond
	h.sup.BackoffMax = 10 * time.Millisecond
	return h
}

// generation returns how many machine generations have been assembled.
func (h *chaosHarness) generation() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gens
}

// node returns endpoint proc of generation gen.
func (h *chaosHarness) node(gen, proc int) *transport.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[gen][proc]
}

// kill crashes proc of generation gen: aborting its node is the
// in-memory equivalent of a SIGKILLed worker process — every peer
// observes peer loss.
func (h *chaosHarness) kill(gen, proc int) {
	h.node(gen, proc).Abort(errors.New("injected worker crash"))
}

// noFaults is the all-clean plan for one generation.
func noFaults(procs int) []transport.FaultPlan {
	return make([]transport.FaultPlan, procs)
}

// runSupervised drives the job through the harness, asserting that
// every step is reported exactly once (replayed steps must stay silent)
// and that the run eventually succeeds. It returns the per-step results
// and the recovery events observed.
func runSupervised(t *testing.T, h *chaosHarness, job Job, onStep func(step int)) ([]*parbh.Result, []RecoveryEvent) {
	t.Helper()
	results := make([]*parbh.Result, job.Steps)
	var events []RecoveryEvent
	_, err := h.sup.Run(context.Background(), job, func(step int, res *parbh.Result) bool {
		if step < 0 || step >= job.Steps {
			t.Errorf("step %d out of range", step)
			return false
		}
		if results[step] != nil {
			t.Errorf("step %d reported twice (checkpoint replay leaked into the stream)", step)
		}
		results[step] = res
		if onStep != nil {
			onStep(step)
		}
		return true
	}, func(ev RecoveryEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if err := h.sup.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	h.wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("step %d never reported", i)
		}
	}
	return results, events
}

// TestGoldenRecoveryDPDAPartition: a full link partition mid-run on a
// worker demolishes the generation; the rebuilt machine resumes by
// silent replay and the reported results — function shipping's, the
// simulated clock included — are bit-identical to a fault-free in-proc
// run: the headline invariant of the failure model.
func TestGoldenRecoveryDPDAPartition(t *testing.T) {
	cfg := parbh.Config{
		Scheme: parbh.DPDA,
		Mode:   parbh.ForceMode,
		Alpha:  0.67,
		Eps:    0.01,
	}
	job, _ := testJob(cfg, 3)
	want := inprocResults(t, job)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan {
		if gen == 0 {
			return []transport.FaultPlan{{}, {Seed: 11 + chaosSeed, PartitionAfter: 40}}
		}
		return noFaults(2)
	})
	got, events := runSupervised(t, h, job, nil)
	if h.generation() < 2 {
		t.Fatalf("partition never forced a rebuild (generations=%d)", h.generation())
	}
	if len(events) == 0 {
		t.Fatal("no recovery events observed")
	}
	for i := range want {
		compareBitIdentical(t, want[i], got[i], i)
	}
}

// TestGoldenRecoverySPSAWorkerKill: an aborted worker link — the
// in-memory equivalent of SIGKILL — is detected as peer loss; the job
// resumes on a rebuilt machine with bit-identical metrics.
func TestGoldenRecoverySPSAWorkerKill(t *testing.T) {
	cfg := parbh.Config{
		Scheme:   parbh.SPSA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.DataShipping,
		Alpha:    0.67,
		Eps:      0.01,
		GridLog2: 2,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan { return noFaults(2) })
	killed := false
	got, events := runSupervised(t, h, job, func(step int) {
		if step == 0 && !killed {
			killed = true
			h.kill(0, 1)
		}
	})
	if h.generation() < 2 {
		t.Fatalf("worker kill never forced a rebuild (generations=%d)", h.generation())
	}
	if len(events) == 0 {
		t.Fatal("no recovery events observed")
	}
	if events[0].Fault != transport.FaultPeerLost {
		t.Errorf("recovery fault = %v, want peer_lost", events[0].Fault)
	}
	if events[0].ResumeStep != 1 {
		t.Errorf("resume step = %d, want 1 (step 0 was already reported)", events[0].ResumeStep)
	}
	for i := range want {
		compareBitIdentical(t, want[i], got[i], i)
	}
}

// TestGoldenRecoverySPDACorrupt: an injected corrupt frame fails the
// receiving worker exactly as an undecodable TCP body would; recovery
// still converges to the fault-free metrics.
func TestGoldenRecoverySPDACorrupt(t *testing.T) {
	cfg := parbh.Config{
		Scheme:    parbh.SPDA,
		Mode:      parbh.ForceMode,
		Shipping:  parbh.DataShipping,
		Alpha:     0.67,
		Eps:       0.01,
		GridLog2:  2,
		TreeBuild: parbh.NonReplicatedBuild,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan {
		if gen == 0 {
			return []transport.FaultPlan{{}, {Seed: 3 + chaosSeed, CorruptProb: 0.05}}
		}
		return noFaults(2)
	})
	got, events := runSupervised(t, h, job, nil)
	if h.generation() < 2 {
		t.Fatalf("corruption never forced a rebuild (generations=%d)", h.generation())
	}
	if len(events) == 0 {
		t.Fatal("no recovery events observed")
	}
	if n := h.node(0, 1).Metrics().FaultsCorrupted.Load(); n == 0 {
		t.Error("corruption plan injected nothing")
	}
	for i := range want {
		compareBitIdentical(t, want[i], got[i], i)
	}
}

// TestGoldenRecoveryFaultGauntlet is the acceptance scenario: drop,
// partition, and a worker kill across consecutive generations, with the
// stall watchdog converting silent drops into step timeouts. The job
// still finishes with simulated metrics bit-identical to the fault-free
// run, every step reported exactly once.
func TestGoldenRecoveryFaultGauntlet(t *testing.T) {
	cfg := parbh.Config{
		Scheme: parbh.DPDA,
		Mode:   parbh.ForceMode,
		Alpha:  0.67,
		Eps:    0.01,
	}
	job, _ := testJob(cfg, 4)
	want := inprocResults(t, job)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan {
		switch gen {
		case 0:
			// Generation 0: total partition on the worker mid-step.
			return []transport.FaultPlan{{}, {Seed: 17 + chaosSeed, PartitionAfter: 60}}
		case 1:
			// Generation 1: the coordinator silently drops outgoing
			// frames; only the stall watchdog can notice.
			return []transport.FaultPlan{{Seed: 29 + chaosSeed, DropProb: 0.08}, {}}
		default:
			return noFaults(2)
		}
	})
	h.sup.StepTimeout = 2 * time.Second
	killed := false
	got, events := runSupervised(t, h, job, func(step int) {
		// Generation 2+: kill the worker once after a step completes.
		if h.generation() >= 3 && !killed {
			killed = true
			h.kill(h.generation()-1, 1)
		}
	})
	if h.generation() < 4 {
		t.Fatalf("gauntlet used %d generations, want >= 4", h.generation())
	}
	if len(events) < 3 {
		t.Fatalf("observed %d recovery events, want >= 3: %+v", len(events), events)
	}
	if n := h.node(1, 0).Metrics().FaultsDropped.Load(); n == 0 {
		t.Error("drop plan injected nothing in generation 1")
	}
	for i := range want {
		compareBitIdentical(t, want[i], got[i], i)
	}
}

// TestRecoveryBackoffEndsWithContext: a context that ends during the
// wait between attempts ends the run at once, with the context's error
// wrapping the fault, and no further generation is assembled.
func TestRecoveryBackoffEndsWithContext(t *testing.T) {
	cfg := parbh.Config{Scheme: parbh.DPDA, Mode: parbh.ForceMode, Alpha: 0.67, Eps: 0.01}
	job, _ := testJob(cfg, 3)
	h := newChaosHarness(2, func(gen int) []transport.FaultPlan {
		return []transport.FaultPlan{{}, {Seed: 11 + chaosSeed, PartitionAfter: 40}}
	})
	h.sup.BackoffBase, h.sup.BackoffMax = 10*time.Minute, 10*time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	begin := time.Now()
	_, err := h.sup.Run(ctx, job, nil, func(RecoveryEvent) { cancel() })
	if !errors.Is(err, context.Canceled) || transport.FaultKindOf(err) != transport.FaultPeerLost {
		t.Fatalf("run ended with %v; want the context's error wrapping the peer_lost fault", err)
	}
	if took := time.Since(begin); took > time.Minute {
		t.Fatalf("run took %v; the canceled context must cut the backoff (at least 5m) short", took)
	}
	if g := h.generation(); g != 1 {
		t.Fatalf("%d generations assembled, want 1", g)
	}
	h.sup.Shutdown()
	h.wg.Wait()
}
