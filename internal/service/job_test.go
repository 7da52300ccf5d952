package service

import (
	"strings"
	"testing"
	"time"
)

func TestJobSpecDefaults(t *testing.T) {
	var spec JobSpec
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Dist != "plummer" || spec.N != 1000 || spec.Processors != 1 ||
		spec.Scheme != "spsa" || spec.Machine != "ncube2" || spec.Mode != "force" ||
		spec.Steps != 10 {
		t.Fatalf("unexpected defaults: %+v", spec)
	}
	if _, err := spec.SimConfig(); err != nil {
		t.Fatal(err)
	}
}

func TestJobSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"negative n", JobSpec{N: -5}, "n must be"},
		{"huge n", JobSpec{N: MaxParticles + 1}, "n must be"},
		{"bad scheme", JobSpec{Scheme: "mpi"}, "unknown scheme"},
		{"bad machine", JobSpec{Machine: "t3d"}, "unknown machine"},
		{"bad mode", JobSpec{Mode: "energy"}, "unknown mode"},
		{"bad shipping", JobSpec{Shipping: "tcp"}, "unknown shipping"},
		{"bad dist", JobSpec{Dist: "lattice"}, "unknown dist"},
		{"negative steps", JobSpec{Steps: -1}, "steps must be"},
		{"negative frames key every", JobSpec{FramesKeyEvery: -1}, "frames_key_every"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestJobSpecBuildsSimulation(t *testing.T) {
	spec := JobSpec{Dist: "uniform", N: 64, Scheme: "dpda", Machine: "ideal", Steps: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Bodies()); got != 64 {
		t.Fatalf("want 64 bodies, got %d", got)
	}
}

func TestJobCancelAndTerminalStates(t *testing.T) {
	j := newJob("j1", JobSpec{Steps: 3}, time.Unix(0, 0))
	if j.Status().State != StateQueued {
		t.Fatalf("new job state %v", j.Status().State)
	}
	if !j.Cancel() {
		t.Fatal("first cancel should take effect")
	}
	if !j.canceled() {
		t.Fatal("cancel flag not set")
	}
	j.mu.Lock()
	j.state = StateCanceled
	j.mu.Unlock()
	if j.Cancel() {
		t.Fatal("cancel of a terminal job should report false")
	}
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		if !s.Terminal() {
			t.Fatalf("%v should be terminal", s)
		}
	}
	for _, s := range []State{StateQueued, StateRunning} {
		if s.Terminal() {
			t.Fatalf("%v should not be terminal", s)
		}
	}
}

func TestJobPublishSubscribe(t *testing.T) {
	j := newJob("j1", JobSpec{Steps: 5}, time.Unix(0, 0))
	ch, unsub := j.subscribe()
	first := <-ch // initial snapshot
	if first.Steps != 5 || first.Step != 0 {
		t.Fatalf("bad snapshot %+v", first)
	}
	j.publish(Progress{Step: 2, Steps: 5})
	if got := <-ch; got.Step != 2 {
		t.Fatalf("want step 2, got %+v", got)
	}
	unsub()
	j.publish(Progress{Step: 3, Steps: 5}) // must not panic or block
	j.closeSubs()
}

func TestSlowSubscriberDoesNotBlockPublish(t *testing.T) {
	j := newJob("j1", JobSpec{Steps: 5}, time.Unix(0, 0))
	_, unsub := j.subscribe()
	defer unsub()
	// Overflow the subscriber buffer; publishes must all return.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			j.publish(Progress{Step: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
}
