package frames_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/dist"
	"repro/internal/frames"
	"repro/internal/recio"
)

// recordOffsets returns the offset of every whole record in a frame file
// image.
func recordOffsets(data []byte) []int {
	var offs []int
	off := len("NBF1")
	for {
		r, err := recio.Parse(data[off:])
		if err != nil {
			return offs
		}
		offs = append(offs, off)
		off += r.Len
	}
}

// contractChain writes the chain the reader contract is checked on:
// KeyEvery 3, 40 particles until step 5 and 37 from it (so step 5 is a
// keyframe out of cadence), eleven steps, no clean close, and the last
// record — the step-10 delta — cut in half. It returns the frames and the
// whole file.
func contractChain(t *testing.T, path string) ([]*frames.Frame, []byte) {
	t.Helper()
	w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want []*frames.Frame
	for s := int64(0); s < 11; s++ {
		n := 40
		if s >= 5 {
			n = 37
		}
		f := mkFrame(s, n, 42)
		if _, err := w.Append(f); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	offs := recordOffsets(data)
	last := offs[len(offs)-1]
	torn := last + (len(data)-last)/2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}
	return want, data
}

// TestReaderInPlaceContract reads one chain three ways — one reused frame
// (every delta applied in place), a fresh frame per Next (every delta
// rebuilds its group from the keyframe) and SeekStep to each step — and
// requires the same frames, bit for bit. A torn tail leaves the frame
// untouched and its retry continues in place: it succeeds with the
// group's keyframe damaged on disk, which a rebuild would have to read.
func TestReaderInPlaceContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contract.nbf")
	want, data := contractChain(t, path)
	complete := len(want) - 1 // the last step is the torn record

	r, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var f frames.Frame
	for s := 0; s < complete; s++ {
		if err := r.Next(&f); err != nil {
			t.Fatalf("reused frame, step %d: %v", s, err)
		}
		sameBits(t, want[s], &f)
	}
	before := frames.EncodeKeyframe(&f)
	for i := 0; i < 2; i++ {
		if err := r.Next(&f); err != io.EOF {
			t.Fatalf("torn tail: Next = %v, want io.EOF", err)
		}
		if got := frames.EncodeKeyframe(&f); string(got) != string(before) {
			t.Fatal("Next changed the frame at a torn tail")
		}
	}

	fresh, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for s := 0; s < complete; s++ {
		g := &frames.Frame{}
		if err := fresh.Next(g); err != nil {
			t.Fatalf("fresh frame, step %d: %v", s, err)
		}
		sameBits(t, want[s], g)
	}
	if err := fresh.Next(&frames.Frame{}); err != io.EOF {
		t.Fatalf("fresh frame at the torn tail: Next = %v, want io.EOF", err)
	}

	var sf frames.Frame
	for s := 0; s < complete; s++ {
		if err := fresh.SeekStep(int64(s)); err != nil {
			t.Fatal(err)
		}
		for {
			if err := fresh.Next(&sf); err != nil {
				t.Fatalf("seek %d: %v", s, err)
			}
			if sf.Meta.Step >= int64(s) {
				break
			}
		}
		sameBits(t, want[s], &sf)
	}

	// The writer finishes the record, and the step-10 group's keyframe
	// (step 8) is damaged: only the in-place path can read step 10.
	offs := recordOffsets(data)
	healed := append([]byte(nil), data...)
	healed[offs[8]+recio.HeaderLen+20] ^= 0x10
	if err := os.WriteFile(path, healed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&f); err != nil {
		t.Fatalf("retry after the torn tail: %v", err)
	}
	sameBits(t, want[complete], &f)
	if err := fresh.SeekStep(9); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Next(&sf); !errors.Is(err, frames.ErrCorrupt) {
		t.Fatalf("reading the damaged keyframe: Next = %v, want ErrCorrupt", err)
	}
}

// TestReaderForgetsAfterBadDelta checks that a delta which passes its CRC
// but fails to decode leaves no base behind: it carries its predecessor's
// step and particle count and garbles the mass column before it fails, so
// only forgetting the half-written frame keeps the next delta off it.
func TestReaderForgetsAfterBadDelta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.nbf")
	want, data := contractChain(t, path)
	offs := recordOffsets(data)
	d1, _ := recio.Parse(data[offs[1]:])
	const metaLen = 17 * 8
	n := want[1].Parts.Len()
	body := append([]byte(nil), d1.Body[:metaLen+4]...) // step 1's meta and count
	body = append(body, 0, 1)                           // ids unchanged; mass packed
	for i := 0; i < n; i++ {
		body = append(body, 1, 0xff)
	}
	body = append(body, 9) // an unknown column tag
	bad := append(append([]byte(nil), data[:offs[2]]...), recio.Append(nil, 2, body)...)
	bad = append(bad, data[offs[3]:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var f frames.Frame
	for s := 0; s < 2; s++ {
		if err := r.Next(&f); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Next(&f); !errors.Is(err, frames.ErrCorrupt) {
		t.Fatalf("malformed delta: Next = %v, want ErrCorrupt", err)
	}
	if f.Meta.Step != 1 || f.Parts.Len() != n {
		t.Fatalf("the malformed delta left step %d, %d particles; the test needs 1, %d", f.Meta.Step, f.Parts.Len(), n)
	}
	// The record is repaired under the reader: the next Next reads step 2
	// from its keyframe, not from the garbled frame.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for s := 2; s < 5; s++ {
		if err := r.Next(&f); err != nil {
			t.Fatalf("step %d after the repair: %v", s, err)
		}
		sameBits(t, want[s], &f)
	}
}

// liveHeap is the heap the last full GC marked live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestFramePathLiveHeap bounds what the frame path holds between steps,
// in frames of the ledger's service_frames_tail size (40 000 particles,
// 60 B each): a Writer with KeyEvery 16 and a Reader following it with
// one reused frame, over 20 steps. Beyond the caller's two frames it held
// 4.2 frames while the reader kept a private predecessor and its record
// buffer and the writer kept its record buffer beside its predecessor;
// it holds 1.03, and the bound is 1.25: the writer's one copy of the last
// frame plus slack. DecodeKeyframe sizes each column once: it allocated
// 192 times, 4.7 column sizes, while the columns grew by appending, and
// allocates 9 times, 1.02 column sizes, now; the bound is 1.1 (unchecked
// under the race detector, whose instrumentation allocates).
func TestFramePathLiveHeap(t *testing.T) {
	set, err := dist.Named("g", 40000, 1994)
	if err != nil {
		t.Fatal(err)
	}
	src := &frames.Frame{}
	src.Parts.Gather(set.Particles) // set is dead from here on
	n := src.Parts.Len()
	frameBytes := float64(n * (4 + 7*8))
	dst := cloneFrame(src)

	if !raceEnabled {
		rec := frames.EncodeKeyframe(src)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 10
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := frames.DecodeKeyframe(rec); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&m1)
		perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("DecodeKeyframe: %.0f allocations, %.2f column sizes", allocs, perRun/frameBytes)
		if perRun > 1.1*frameBytes {
			t.Errorf("DecodeKeyframe allocates %.0f B for %.0f B of columns, more than 1.1×", perRun, frameBytes)
		}
	}

	path := filepath.Join(t.TempDir(), "live.nbf")
	w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	base := liveHeap()
	var worst float64
	for s := int64(0); s < 20; s++ {
		src.Meta.Step = s
		for i := range src.Parts.PosX {
			src.Parts.PosX[i] += 1e-4 * src.Parts.VelX[i]
			src.Parts.PosY[i] += 1e-4 * src.Parts.VelY[i]
			src.Parts.PosZ[i] += 1e-4 * src.Parts.VelZ[i]
		}
		if _, err := w.Append(src); err != nil {
			t.Fatal(err)
		}
		if err := r.Next(dst); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		sameBits(t, src, dst)
		held := (float64(liveHeap()) - float64(base)) / frameBytes
		worst = max(worst, held)
		if held > 1.25 {
			t.Errorf("step %d: the frame path holds %.2f frames beyond the caller's, more than 1.25", s, held)
		}
	}
	runtime.KeepAlive(src)
	runtime.KeepAlive(dst)
	t.Logf("at most %.2f frames (%.1f MB) held beyond the caller's two", worst, worst*frameBytes/1e6)
}
