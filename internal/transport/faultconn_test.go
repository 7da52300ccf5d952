package transport

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// faultPair builds a two-node mesh whose procs carry the given plans,
// closed when the test ends.
func faultPair(t *testing.T, plan0, plan1 FaultPlan) (*Node, *Node) {
	t.Helper()
	nodes := NewMesh(2, []FaultPlan{plan0, plan1})
	t.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})
	return nodes[0], nodes[1]
}

// fence waits until b has handled every data frame a sent it so far: a
// host message rides the same conn behind them, is never dropped, and
// b's reader delivers in order.
func fence(t *testing.T, a, b *Node) {
	t.Helper()
	if err := a.HostSend(1, "fence"); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := b.HostRecv(); err != nil || payload != "fence" {
		t.Fatalf("fence: HostRecv = %v, %v", payload, err)
	}
}

// firstErr waits for the first error a node's error handler reports.
func firstErr(t *testing.T, errs <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-errs:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the error handler never fired", what)
		return nil
	}
}

func testFrame(tag int) *Frame {
	return &Frame{Src: 0, Dst: 1, Tag: int32(tag), Words: 3, Arrival: 1.5, Payload: []float64{1, 2, 3}}
}

// TestFaultConnDrop: with DropProb 1 every data frame is swallowed
// without an error (the receiver's rank would block until recovery),
// and the drop counter records each one.
func TestFaultConnDrop(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, DropProb: 1}, FaultPlan{})
	var got atomic.Int32
	b.SetDataHandler(func(*Frame) { got.Add(1) })
	for i := 0; i < 5; i++ {
		if err := a.SendData(1, testFrame(i)); err != nil {
			t.Fatalf("drop must be silent, got %v", err)
		}
	}
	fence(t, a, b)
	if n := got.Load(); n != 0 {
		t.Fatalf("%d frames delivered through a 100%% drop plan", n)
	}
	if n := a.Metrics().FaultsDropped.Load(); n != 5 {
		t.Fatalf("FaultsDropped = %d, want 5", n)
	}
}

// TestFaultConnDuplicateDedup: DupProb 1 sends every frame twice; the
// receiving node's Seq window drops the copies, so the handler sees
// each frame exactly once and both sides count the chaos.
func TestFaultConnDuplicateDedup(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, DupProb: 1}, FaultPlan{})
	var tags []int
	b.SetDataHandler(func(f *Frame) { tags = append(tags, int(f.Tag)) })
	for i := 0; i < 4; i++ {
		if err := a.SendData(1, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	fence(t, a, b)
	if len(tags) != 4 {
		t.Fatalf("delivered %d frames, want 4 (dedup failed): %v", len(tags), tags)
	}
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("delivery order %v, want 0..3", tags)
		}
	}
	if n := a.Metrics().FaultsDuplicated.Load(); n != 4 {
		t.Fatalf("FaultsDuplicated = %d, want 4", n)
	}
	if n := b.Metrics().FaultsDeduped.Load(); n != 4 {
		t.Fatalf("FaultsDeduped = %d, want 4", n)
	}
}

// TestFaultConnDelay: delayed frames still arrive, in order, and are
// counted.
func TestFaultConnDelay(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, DelayProb: 1, Delay: time.Millisecond}, FaultPlan{})
	var got atomic.Int32
	b.SetDataHandler(func(*Frame) { got.Add(1) })
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := a.SendData(1, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	fence(t, a, b)
	if n := got.Load(); n != 3 {
		t.Fatalf("delivered %d frames, want 3", n)
	}
	if n := a.Metrics().FaultsDelayed.Load(); n != 3 {
		t.Fatalf("FaultsDelayed = %d, want 3", n)
	}
	if elapsed < 3*time.Millisecond {
		t.Fatalf("3 delayed sends finished in %v, delays not applied", elapsed)
	}
}

// TestFaultConnSlowPeer: frames to a listed peer are always delayed.
func TestFaultConnSlowPeer(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, SlowPeers: []int{1}, Delay: time.Millisecond}, FaultPlan{})
	var got atomic.Int32
	b.SetDataHandler(func(*Frame) { got.Add(1) })
	if err := a.SendData(1, testFrame(0)); err != nil {
		t.Fatal(err)
	}
	fence(t, a, b)
	if n := got.Load(); n != 1 {
		t.Fatalf("delivered %d frames, want 1", n)
	}
	if n := a.Metrics().FaultsDelayed.Load(); n != 1 {
		t.Fatalf("FaultsDelayed = %d, want 1", n)
	}
}

// TestFaultConnPartition: after PartitionAfter frames the conn is
// severed, later sends fail with a FaultPartition, the error handler
// fires with it, and host calls fail.
func TestFaultConnPartition(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, PartitionAfter: 3}, FaultPlan{})
	b.SetDataHandler(func(*Frame) {})
	errs := make(chan error, 4)
	a.SetErrorHandler(func(err error) { errs <- err })
	var sendErr error
	for i := 0; i < 6; i++ {
		if err := a.SendData(1, testFrame(i)); err != nil {
			sendErr = err
		}
	}
	if sendErr == nil {
		t.Fatal("sends past the partition trigger did not fail")
	}
	if k := FaultKindOf(sendErr); k != FaultPartition {
		t.Fatalf("send error kind = %v, want partition: %v", k, sendErr)
	}
	if err := firstErr(t, errs, "partition"); FaultKindOf(err) != FaultPartition {
		t.Fatalf("error handler kind = %v: %v", FaultKindOf(err), err)
	}
	if err := a.HostSend(1, "x"); FaultKindOf(err) != FaultPartition {
		t.Fatalf("HostSend through partition = %v, want partition error", err)
	}
	if _, _, err := a.HostRecv(); err == nil {
		t.Fatal("HostRecv on a partitioned link did not fail")
	}
	if n := a.Metrics().FaultsPartitions.Load(); n != 1 {
		t.Fatalf("FaultsPartitions = %d, want 1", n)
	}
}

// TestFaultConnCorrupt: a frame corrupted on a machine conn is never
// delivered, and the receiving node fails with a FaultCorrupt, exactly
// as it reacts to an undecodable body off a socket.
func TestFaultConnCorrupt(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, CorruptProb: 1}, FaultPlan{})
	var got atomic.Int32
	b.SetDataHandler(func(*Frame) { got.Add(1) })
	errs := make(chan error, 4)
	b.SetErrorHandler(func(err error) { errs <- err })
	if err := a.SendData(1, testFrame(0)); err != nil {
		t.Fatal(err)
	}
	if err := firstErr(t, errs, "corruption"); FaultKindOf(err) != FaultCorrupt {
		t.Fatalf("error kind = %v: %v", FaultKindOf(err), err)
	}
	if got.Load() != 0 {
		t.Fatal("corrupted frame was delivered")
	}
	if n := a.Metrics().FaultsCorrupted.Load(); n != 1 {
		t.Fatalf("FaultsCorrupted = %d, want 1", n)
	}
}

// TestFaultConnCorruptNeverDecodes: a corrupted frame keeps its framing
// but no decoder accepts it, whatever the frame — a data frame whose
// first body byte is Epoch's, which a flipped byte would leave
// decodable, or a fabric control frame.
func TestFaultConnCorruptNeverDecodes(t *testing.T) {
	frames := []func() ([]byte, error){
		func() ([]byte, error) { return AppendFrame(nil, testFrame(7)) },
		func() ([]byte, error) { return AppendFrame(nil, &Frame{Epoch: 3, Payload: int32(1)}) },
		func() ([]byte, error) { return AppendControl(nil, KindHost, []string{"assign", "j1"}) },
	}
	for i, build := range frames {
		frame, err := build()
		if err != nil {
			t.Fatal(err)
		}
		kind := frame[4]
		local, remote := net.Pipe()
		fc := newFaultConn(local, FaultPlan{Seed: int64(i) + 1, CorruptProb: 1}, new(Metrics), 1, kind)
		go fc.Write(frame)
		gotKind, body, err := ReadRaw(remote)
		local.Close()
		remote.Close()
		if err != nil || gotKind != kind {
			t.Fatalf("frame %d: corruption broke the framing: kind %d, %v", i, gotKind, err)
		}
		if kind == KindData {
			_, err = DecodeFrame(body)
		} else {
			_, err = Unmarshal(body)
		}
		if err == nil {
			t.Fatalf("frame %d: a corrupted frame decoded", i)
		}
	}
}

// TestFaultConnDeterministicSchedule: the same seed over the same frame
// sequence injects the same faults — the property the chaos CI matrix
// and the golden-recovery tests rely on.
func TestFaultConnDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []int {
		a, b := faultPair(t, FaultPlan{Seed: seed, DropProb: 0.4}, FaultPlan{})
		var tags []int
		b.SetDataHandler(func(f *Frame) { tags = append(tags, int(f.Tag)) })
		for i := 0; i < 50; i++ {
			if err := a.SendData(1, testFrame(i)); err != nil {
				t.Fatal(err)
			}
		}
		fence(t, a, b)
		return tags
	}
	first := run(99)
	second := run(99)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", first, second)
	}
	if len(first) == 0 || len(first) == 50 {
		t.Fatalf("drop plan delivered %d/50 frames; expected a mix", len(first))
	}
	other := run(7)
	if fmt.Sprint(first) == fmt.Sprint(other) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultConnHostPassThrough: control traffic crosses a machine conn
// whose plan drops every data frame, unmodified.
func TestFaultConnHostPassThrough(t *testing.T) {
	a, b := faultPair(t, FaultPlan{Seed: 1, DropProb: 1}, FaultPlan{})
	if err := a.HostSend(1, "hello"); err != nil {
		t.Fatal(err)
	}
	src, payload, err := b.HostRecv()
	if err != nil || src != 0 || payload != "hello" {
		t.Fatalf("HostRecv = %d, %v, %v", src, payload, err)
	}
}

// TestRetryableClassification pins which fault kinds a supervisor may
// retry.
func TestRetryableClassification(t *testing.T) {
	if Retryable(nil) {
		t.Fatal("nil error is not retryable")
	}
	if Retryable(fmt.Errorf("plain error")) {
		t.Fatal("non-transport errors are not retryable")
	}
	for _, kind := range []FaultKind{FaultPeerLost, FaultHeartbeat, FaultCorrupt, FaultPartition, FaultStall} {
		err := fmt.Errorf("wrapped: %w", faultErr(kind, 2, "boom"))
		if !Retryable(err) {
			t.Fatalf("%v should be retryable", kind)
		}
		if FaultKindOf(err) != kind {
			t.Fatalf("FaultKindOf lost the kind %v", kind)
		}
	}
	if Retryable(faultErr(FaultClosed, -1, "closed")) {
		t.Fatal("a deliberate close is not retryable")
	}
}
