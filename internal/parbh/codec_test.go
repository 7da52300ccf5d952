package parbh

import (
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/transport"
	"repro/internal/vec"
)

// A request bin's particles travel as one copy of their memory
// (recio.Column), which is their encoding only while reqPart is its
// fields in wire order with no padding.
func TestReqPartLayout(t *testing.T) {
	var q reqPart
	if unsafe.Sizeof(q) != reqPartSize || unsafe.Offsetof(q.Pos) != 0 ||
		unsafe.Offsetof(q.Self) != 24 || unsafe.Offsetof(q.N) != 28 {
		t.Fatalf("reqPart is %d bytes with Pos, Self, N at %d, %d, %d; the wire has %d bytes at 0, 24, 28",
			unsafe.Sizeof(q), unsafe.Offsetof(q.Pos), unsafe.Offsetof(q.Self), unsafe.Offsetof(q.N), reqPartSize)
	}
}

// A steady reply bin of ≈ 10 KB costs Node.SendData no allocation once
// the conn's encode buffer has grown: the bin is encoded in one copy per
// column into that buffer. The sender's fault plan drops every data
// frame, so nothing is decoded on the far side inside the measurement.
func TestSendReplyBinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	nodes := transport.NewMesh(2, []transport.FaultPlan{{Seed: 1, DropProb: 1}, {}})
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	f := &transport.Frame{Src: 0, Dst: 1, Tag: 7, Words: 1280, Payload: repBin{F: make([]vec.V3, 420)}}
	if err := nodes[0].SendData(1, f); err != nil {
		t.Fatal(err)
	}
	gc := debug.SetGCPercent(-1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := nodes[0].SendData(1, f); err != nil {
			t.Fatal(err)
		}
	})
	debug.SetGCPercent(gc)
	if allocs != 0 {
		t.Fatalf("SendData of a reply bin allocates %v times, want 0", allocs)
	}
}
