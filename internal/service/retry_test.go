package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// meshCluster builds a cluster supervisor over in-memory meshes, one per
// machine generation, whose worker carries plan(gen) as its fault plan.
// The returned function counts the generations assembled so far.
func meshCluster(t *testing.T, plan func(gen int) transport.FaultPlan) (*cluster.Supervisor, func() int) {
	t.Helper()
	var (
		mu   sync.Mutex
		gens int
		wg   sync.WaitGroup
	)
	sup := cluster.NewSupervisor(func() (*cluster.Coordinator, error) {
		mu.Lock()
		gen := gens
		gens++
		mu.Unlock()
		nodes := transport.NewMesh(2, []transport.FaultPlan{{}, plan(gen)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cluster.Serve(nodes[1], nil); err != nil {
				nodes[1].Abort(err)
			} else {
				nodes[1].Close()
			}
		}()
		return cluster.NewCoordinator(nodes[0])
	})
	t.Cleanup(func() {
		sup.Shutdown()
		wg.Wait()
	})
	return sup, func() int {
		mu.Lock()
		defer mu.Unlock()
		return gens
	}
}

// chaosCluster is meshCluster with firstGen on the first machine
// generation and clean generations after it. The supervisor keeps its
// default budget of zero retries.
func chaosCluster(t *testing.T, firstGen transport.FaultPlan) *cluster.Supervisor {
	sup, _ := meshCluster(t, func(gen int) transport.FaultPlan {
		if gen == 0 {
			return firstGen
		}
		return transport.FaultPlan{}
	})
	return sup
}

// faultedSpec is a distributed job whose first machine generation the
// partition of chaosCluster's first plan cuts short.
func faultedSpec(steps int) JobSpec {
	return JobSpec{
		Dist: "uniform", N: 96, Processors: 2, Scheme: "dpda",
		Machine: "ideal", Steps: steps, Eps: 0.05, Seed: 3,
		Transport: "tcp",
	}
}

// TestClusterJobRetriesAfterFault: a transport fault on the first
// machine generation fails the running distributed job's attempt; the
// supervisor rebuilds the machine after its backoff, resumes from the
// last reported step, and the job still completes — with the retry
// visible in its status, the recovery metrics, and the progress stream.
func TestClusterJobRetriesAfterFault(t *testing.T) {
	sup := chaosCluster(t, transport.FaultPlan{Seed: 11, PartitionAfter: 40})
	sup.MaxRetries = 3
	sup.BackoffBase = time.Millisecond
	svc := startService(t, Options{Workers: 1, Cluster: sup})
	svc.Metrics().SetTransportFunc(sup.Metrics)
	st, err := svc.Submit(faultedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "faulted cluster job done", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	final, err := svc.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Retries < 1 {
		t.Errorf("status records %d retries, want >= 1", final.Retries)
	}
	if final.Progress.Step != 3 {
		t.Errorf("final step %d, want 3", final.Progress.Step)
	}
	if got := svc.Metrics().JobsRetried.Load(); got < 1 {
		t.Errorf("JobsRetried = %d, want >= 1", got)
	}
	// The worker's injected partition reaches the coordinator as peer
	// loss — the partitioned worker aborts and the coordinator observes
	// the death, exactly as a TCP connection reset would land.
	body := svc.Metrics().Render()
	if !strings.Contains(body, "nbodyd_recoveries_peer_lost_total 1") {
		t.Errorf("metrics missing peer_lost recovery row:\n%s", body)
	}
	if !strings.Contains(body, "nbodyd_transport_faults_partitions_total") {
		t.Errorf("metrics missing transport fault rows:\n%s", body)
	}
}

// TestClusterJobFailsAfterRetryBudget: when every generation faults,
// the job is failed — not retried forever — and the process survives.
func TestClusterJobFailsAfterRetryBudget(t *testing.T) {
	sup, _ := meshCluster(t, func(int) transport.FaultPlan {
		return transport.FaultPlan{Seed: 5, PartitionAfter: 10}
	})
	sup.MaxRetries = 2
	sup.BackoffBase = time.Millisecond
	svc := startService(t, Options{Workers: 1, Cluster: sup})
	st, err := svc.Submit(faultedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "exhausted cluster job failed", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateFailed
	})
	final, err := svc.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Retries != 2 {
		t.Errorf("retries = %d, want 2 (the full budget)", final.Retries)
	}
	if final.Error == "" {
		t.Error("failed job carries no error")
	}
}

// slowRecovery gives sup a backoff no test outlasts: the first wait is
// at least five minutes.
func slowRecovery(sup *cluster.Supervisor) {
	sup.MaxRetries = 3
	sup.BackoffBase, sup.BackoffMax = 10*time.Minute, 10*time.Minute
}

// waitRecovering waits until the job's first recovery has been booked,
// which the supervisor does before it starts the backoff.
func waitRecovering(t *testing.T, svc *Service, id string) {
	t.Helper()
	waitUntil(t, "cluster job recovering", func() bool {
		s, err := svc.Get(id)
		return err == nil && s.Retries >= 1
	})
}

// TestClusterJobCancelDuringRecoveryBackoff: a cancel that lands while
// the supervisor backs off ends the job canceled at once, without
// assembling another machine generation.
func TestClusterJobCancelDuringRecoveryBackoff(t *testing.T) {
	sup, gens := meshCluster(t, func(gen int) transport.FaultPlan {
		if gen == 0 {
			return transport.FaultPlan{Seed: 11, PartitionAfter: 40}
		}
		return transport.FaultPlan{}
	})
	slowRecovery(sup)
	svc := startService(t, Options{Workers: 1, Cluster: sup})
	st, err := svc.Submit(faultedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitRecovering(t, svc, st.ID)
	// Nothing steps during the backoff: the last progress published is
	// the recovery event.
	if s, _ := svc.Get(st.ID); s.Progress.Event != "recovery" || s.Progress.Fault != "peer_lost" || s.Progress.Retries != 1 {
		t.Fatalf("progress during the backoff is %+v, want the peer_lost recovery event", s.Progress)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job canceled during the backoff", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateCanceled
	})
	if g := gens(); g != 1 {
		t.Errorf("%d machine generations assembled, want 1: the cancel must end the backoff, not another attempt", g)
	}
	if n := svc.Metrics().JobsFailed.Load(); n != 0 {
		t.Errorf("JobsFailed = %d, want 0", n)
	}
}

// TestShutdownDuringRecoveryBackoffResumesFromChain: a Shutdown while a
// distributed job backs off returns long before the backoff would end
// and leaves the job non-terminal; the next daemon on the same spool
// resumes it from its frame chain and ends with the machine time of an
// uninterrupted run.
func TestShutdownDuringRecoveryBackoffResumesFromChain(t *testing.T) {
	spec := faultedSpec(60)
	ref := startService(t, Options{Workers: 1, Cluster: chaosCluster(t, transport.FaultPlan{})})
	st, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "reference job done", func() bool {
		s, err := ref.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	want, err := ref.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	sup := chaosCluster(t, transport.FaultPlan{Seed: 11, PartitionAfter: 400})
	slowRecovery(sup)
	opt := Options{Workers: 1, Cluster: sup, SpoolDir: t.TempDir()}
	svcA := startService(t, opt)
	job, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRecovering(t, svcA, job.ID)
	begin := time.Now()
	shutdownService(t, svcA)
	if took := time.Since(begin); took > 30*time.Second {
		t.Fatalf("Shutdown took %v; it must cut the backoff (at least 5m) short", took)
	}
	stopped, err := svcA.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.State.Terminal() {
		t.Fatalf("Shutdown during the backoff left the job %s, want it non-terminal", stopped.State)
	}
	if stopped.Progress.Step == 0 {
		t.Fatal("the fault hit before the first step; the chain holds nothing to resume")
	}
	if n := svcA.Metrics().JobsFailed.Load() + svcA.Metrics().JobsCanceled.Load(); n != 0 {
		t.Fatalf("%d jobs failed or canceled by the shutdown", n)
	}

	svcB := startService(t, opt)
	got, err := svcB.Get(job.ID)
	if err != nil {
		t.Fatalf("job not recovered from spool: %v", err)
	}
	if got.ResumedFrom != stopped.Progress.Step {
		t.Fatalf("recovered job resumes from step %d, its chain ends at %d", got.ResumedFrom, stopped.Progress.Step)
	}
	waitUntil(t, "resumed job done", func() bool {
		s, err := svcB.Get(job.ID)
		return err == nil && s.State == StateDone
	})
	res, err := svcB.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != spec.Steps || res.MachineTime != want.MachineTime {
		t.Fatalf("resumed job: %d steps, machine time %.17g; uninterrupted: %d, %.17g",
			res.Steps, res.MachineTime, want.Steps, want.MachineTime)
	}
}
