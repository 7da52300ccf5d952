package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shortSpec is a job that completes in well under a second.
func shortSpec(steps int) JobSpec {
	return JobSpec{
		Dist: "uniform", N: 96, Processors: 2, Scheme: "spsa",
		Machine: "ideal", Steps: steps, Eps: 0.05, Seed: 3,
	}
}

// longSpec is a job that cannot plausibly finish during a test; it must
// be canceled or abandoned.
func longSpec() JobSpec {
	s := shortSpec(1 << 20)
	s.N = 256
	return s
}

func startService(t *testing.T, opt Options) *Service {
	t.Helper()
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	svc, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc
}

func TestSubmitRunsToCompletion(t *testing.T) {
	clock := NewFakeClock(time.Unix(1_000_000, 0))
	svc := startService(t, Options{Workers: 1, Clock: clock})
	st, err := svc.Submit(shortSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job done", func() bool {
		s, err := svc.Get(st.ID)
		return err == nil && s.State == StateDone
	})
	final, err := svc.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Progress.Step != 4 || final.Progress.MachineTime <= 0 {
		t.Fatalf("bad final progress %+v", final.Progress)
	}
	res, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 || len(res.Bodies) != 96 {
		t.Fatalf("bad result: steps=%d bodies=%d", res.Steps, len(res.Bodies))
	}
	if got := svc.Metrics().JobsDone.Load(); got != 1 {
		t.Fatalf("done counter %d", got)
	}
	if got := svc.Metrics().StepsTotal.Load(); got != 4 {
		t.Fatalf("steps counter %d", got)
	}
}

func TestPotentialModeJob(t *testing.T) {
	svc := startService(t, Options{Workers: 1})
	spec := shortSpec(2)
	spec.Mode = "potential"
	spec.Degree = 3
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "potential job done", func() bool {
		s, _ := svc.Get(st.ID)
		return s.State == StateDone
	})
	res, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || res.SimTime != 0 {
		t.Fatalf("potential mode should not advance the clock: %+v", res)
	}
}

func TestQueueFullRejects(t *testing.T) {
	svc := startService(t, Options{Workers: 1, QueueDepth: 1})
	j1, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "j1 running", func() bool {
		s, _ := svc.Get(j1.ID)
		return s.State == StateRunning
	})
	j2, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(longSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: want ErrQueueFull, got %v", err)
	}
	if got := svc.Metrics().JobsRejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d", got)
	}
	// Cancel the queued job: immediate terminal state, no worker needed.
	st, err := svc.Cancel(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued cancel state %v", st.State)
	}
	if _, err := svc.Cancel(j2.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel: want ErrTerminal, got %v", err)
	}
	// Cancel the running job and wait for the worker to notice.
	if _, err := svc.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "j1 canceled", func() bool {
		s, _ := svc.Get(j1.ID)
		return s.State == StateCanceled
	})
	if got := svc.Metrics().JobsCanceled.Load(); got != 2 {
		t.Fatalf("canceled counter %d", got)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	svc := startService(t, Options{Workers: 1})
	if _, err := svc.Submit(JobSpec{Scheme: "nope"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if got := svc.Metrics().JobsInvalid.Load(); got != 1 {
		t.Fatalf("invalid counter %d", got)
	}
}

func TestUnknownJobErrors(t *testing.T) {
	svc := startService(t, Options{Workers: 1})
	if _, err := svc.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := svc.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := svc.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, _, err := svc.Subscribe("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	svc, err := New(Options{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(shortSpec(1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	svc := startService(t, Options{Workers: 1})
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(j.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("want ErrNotDone, got %v", err)
	}
	svc.Cancel(j.ID)
}

// Frame capture cannot be switched off: every job's chain is its resume
// point, so a negative default keyframe cadence is refused (a spec's is
// refused by Validate).
func TestNegativeFramesKeyEveryRefused(t *testing.T) {
	if _, err := New(Options{FramesKeyEvery: -1}); err == nil {
		t.Fatal("New accepted FramesKeyEvery -1")
	}
}
