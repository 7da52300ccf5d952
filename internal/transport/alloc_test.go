package transport

import (
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
)

// withoutGC runs f with the collector off: AllocsPerRun counts the whole
// process's allocations, and a collection inside the window runs cleanups
// that allocate (see frames' TestEncodeKeyframeAllocs).
func withoutGC(f func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
}

// A steady data frame costs its sender no allocation: SendData encodes
// into the conn's buffer and writes it.
func TestSendDataAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, b := net.Pipe()
	n := &Node{procID: 0, nprocs: 2, conns: []*Live{nil, NewLive(a, 1, nil)}}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, b)
	}()
	defer func() {
		a.Close()
		<-drained
	}()
	for _, payload := range []any{make([]float64, 1250), make([]uint64, 1250), "a host-sized string payload"} {
		f := &Frame{Src: 0, Dst: 1, Tag: 3, Words: 1250, Arrival: 2.5, Payload: payload}
		var allocs float64
		withoutGC(func() {
			allocs = testing.AllocsPerRun(100, func() {
				if err := n.SendData(1, f); err != nil {
					t.Fatal(err)
				}
			})
		})
		if allocs != 0 {
			t.Errorf("SendData of a %T frame allocates %v times, want 0", payload, allocs)
		}
	}
}

// A frame larger than keepBuf is sent from a buffer that is dropped after
// it, so a conn does not pin it.
func TestSendDataDropsLargeBuffer(t *testing.T) {
	a, b := net.Pipe()
	l := NewLive(a, 1, nil)
	n := &Node{procID: 0, nprocs: 2, conns: []*Live{nil, l}}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, b)
	}()
	defer func() {
		a.Close()
		<-drained
	}()
	if err := n.SendData(1, &Frame{Payload: make([]float64, keepBuf/8)}); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.enc.W.B); c != 0 {
		t.Fatalf("the conn keeps a %d-byte encode buffer after a frame above %d", c, keepBuf)
	}
	if err := n.SendData(1, &Frame{Payload: make([]float64, 100)}); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.enc.W.B); c == 0 || c > keepBuf {
		t.Fatalf("the conn keeps a %d-byte encode buffer after a small frame", c)
	}
}

// Live.Read reads every frame into the one body buffer: a stream of
// frames costs no allocation per frame beyond what deliver decodes.
func TestLiveReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const frames = 500
	var stream []byte
	for i := range frames {
		var err error
		if stream, err = AppendFrame(stream, &Frame{Tag: int32(i), Payload: make([]float64, 1+i%300)}); err != nil {
			t.Fatal(err)
		}
	}
	one, err := AppendFrame(nil, &Frame{Payload: make([]float64, 100)})
	if err != nil {
		t.Fatal(err)
	}
	decodeAllocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeFrame(one[frameHeaderLen:]); err != nil {
			t.Fatal(err)
		}
	})
	for _, decode := range []bool{false, true} {
		a, b := net.Pipe()
		go func() {
			a.Write(stream)
			bye, _ := AppendControl(nil, KindBye, nil)
			a.Write(bye)
			a.Close()
		}()
		l := NewLive(b, 0, nil)
		got := 0
		var before, after runtime.MemStats
		withoutGC(func() {
			runtime.ReadMemStats(&before)
			err := l.Read(func(kind uint8, body []byte) error {
				got++
				if decode {
					_, err := DecodeFrame(body)
					return err
				}
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
		})
		if got != frames {
			t.Fatalf("read %d frames, sent %d", got, frames)
		}
		// The reader's own buffers, the Bye and the writer's goroutine
		// are a few allocations in all; a body per frame would be 500.
		allocs := float64(after.Mallocs - before.Mallocs)
		want := 50.0
		if decode {
			want += frames * decodeAllocs
		}
		t.Logf("%d frames (decode %v): %v allocations, %v per decode", frames, decode, allocs, decodeAllocs)
		if allocs > want {
			t.Errorf("reading %d frames (decode %v) allocated %v times, want at most %v", frames, decode, allocs, want)
		}
	}
}
