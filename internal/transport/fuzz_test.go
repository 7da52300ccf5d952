package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/recio"
)

// seedFrames returns valid encoded data frames (header included)
// covering nil, scalar, slice, string, and empty-struct payloads.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for i, payload := range []any{
		nil,
		true,
		int(42),
		int64(-7),
		float64(3.25),
		"hello",
		[]byte{1, 2, 3},
		[]int{4, 5},
		[]int32{6},
		[]uint64{7, 8, 9},
		[]float64{1.5, 2.5},
		[2]float64{0.5, -0.5},
		struct{}{},
	} {
		f := &Frame{Epoch: 3, Src: int32(i), Dst: 1, Tag: 9, Words: 2, Arrival: 1.25}
		f.Payload = payload
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// FuzzDecodeFrame hammers the frame decoder with truncated, corrupt,
// and hostile inputs: it must return errors, never panic, and never
// allocate beyond the MaxFrame cap. ReadRaw's length-prefix guard is
// exercised on the same inputs treated as a byte stream.
func FuzzDecodeFrame(f *testing.F) {
	for _, buf := range seedFrames(f) {
		f.Add(buf[frameHeaderLen:]) // well-formed body
		f.Add(buf)                  // header misparsed as body
		if len(buf) > frameHeaderLen+3 {
			f.Add(buf[frameHeaderLen : len(buf)-3]) // truncated body
		}
	}
	// An oversized length prefix: ReadRaw must reject it before
	// allocating.
	huge := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(huge, uint32(MaxFrame+1))
	huge[4] = KindData
	f.Add(huge)
	// A plausible-looking body with a hostile slice length.
	bogus := make([]byte, 0, 64)
	w := recio.Writer{B: bogus}
	w.U32(1)       // epoch
	w.I32(0)       // src
	w.I32(1)       // dst
	w.I32(2)       // tag
	w.I32(3)       // words
	w.F64(0.5)     // arrival
	w.U16(idF64s)  // []float64
	w.U32(1 << 30) // claimed length far beyond the input
	f.Add(w.B)

	f.Fuzz(func(t *testing.T, body []byte) {
		frame, err := DecodeFrame(body)
		if err == nil {
			// Whatever decoded must re-encode: the codec space is closed
			// under round trips.
			if _, rerr := AppendFrame(nil, frame); rerr != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", rerr)
			}
		}
		// The same bytes as a socket stream. Cap the claimed length we
		// honor in-fuzz so the corpus doesn't thrash on allocations that
		// are legal (≤ MaxFrame) but huge; the MaxFrame rejection itself
		// is pinned deterministically in TestReadRawRejectsOversizedLength.
		if len(body) >= frameHeaderLen {
			if n := binary.LittleEndian.Uint32(body[:4]); n <= 1<<20 || n > MaxFrame {
				_, _, _ = ReadRaw(bytes.NewReader(body))
			}
		}
	})
}

// TestFrameRoundTrip pins bit-exact frame round trips for every builtin
// payload shape, including float bit patterns that compare unequal
// (NaN) or equal across distinct bits (±0).
func TestFrameRoundTrip(t *testing.T) {
	payloads := []any{
		nil,
		false,
		int(-1),
		int32(7),
		int64(1 << 40),
		uint64(math.MaxUint64),
		math.Inf(-1),
		"κόσμος",
		[]byte(nil),
		[]byte{},
		[]int(nil),
		[]float64{math.Pi, -0.0, math.SmallestNonzeroFloat64},
		[2]float64{1, 2},
		struct{}{},
	}
	for _, payload := range payloads {
		in := &Frame{Epoch: 9, Src: 2, Dst: 5, Tag: 1 << 20, Words: 33, Arrival: 0.125, Payload: payload}
		buf, err := AppendFrame(nil, in)
		if err != nil {
			t.Fatalf("%T: %v", payload, err)
		}
		if buf[4] != KindData {
			t.Fatalf("%T: frame kind = %d, want %d", payload, buf[4], KindData)
		}
		if got := binary.LittleEndian.Uint32(buf[:4]); int(got) != len(buf)-frameHeaderLen {
			t.Fatalf("%T: length prefix %d, body %d", payload, got, len(buf)-frameHeaderLen)
		}
		out, err := DecodeFrame(buf[frameHeaderLen:])
		if err != nil {
			t.Fatalf("%T: decode: %v", payload, err)
		}
		if out.Epoch != in.Epoch || out.Src != in.Src || out.Dst != in.Dst ||
			out.Tag != in.Tag || out.Words != in.Words ||
			math.Float64bits(out.Arrival) != math.Float64bits(in.Arrival) {
			t.Fatalf("%T: header round trip: got %+v, want %+v", payload, out, in)
		}
		if !reflect.DeepEqual(out.Payload, in.Payload) {
			t.Fatalf("payload round trip: got %#v, want %#v", out.Payload, in.Payload)
		}
	}
}

// TestDecodeFrameTruncated: every prefix of a valid body errors, never
// panics.
func TestDecodeFrameTruncated(t *testing.T) {
	for _, buf := range seedFrames(t) {
		body := buf[frameHeaderLen:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeFrame(body[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded without error", cut, len(body))
			}
		}
	}
}

// TestDecodeFrameTrailingBytes: extra bytes after the payload are a
// decode error (a frame is exactly one message).
func TestDecodeFrameTrailingBytes(t *testing.T) {
	buf := seedFrames(t)[0]
	body := append(append([]byte(nil), buf[frameHeaderLen:]...), 0xEE)
	_, err := DecodeFrame(body)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes error", err)
	}
}

// TestDecodeFrameUnknownWireID: a payload ID nothing registered decodes
// to a clear error.
func TestDecodeFrameUnknownWireID(t *testing.T) {
	var w recio.Writer
	w.U32(0) // epoch
	w.U32(0) // seq
	w.I32(0)
	w.I32(0)
	w.I32(0)
	w.I32(0)
	w.F64(0)
	w.U16(0xFFFE)
	if _, err := DecodeFrame(w.B); err == nil || !strings.Contains(err.Error(), "unknown wire ID") {
		t.Fatalf("err = %v, want unknown-wire-ID error", err)
	}
}

// TestReadRawRejectsOversizedLength: a hostile length prefix is refused
// before any allocation happens.
func TestReadRawRejectsOversizedLength(t *testing.T) {
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr, uint32(MaxFrame+1))
	hdr[4] = KindData
	_, _, err := ReadRaw(bytes.NewReader(hdr))
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("err = %v, want MaxFrame rejection", err)
	}
}

// TestHostileSliceLengthBounded: a corrupt slice length cannot drive
// allocation beyond the input size (the SliceLen guard).
func TestHostileSliceLengthBounded(t *testing.T) {
	var w recio.Writer
	w.U16(idF64s)
	w.U32(1 << 30) // claims 8 GiB of floats in a 6-byte input
	if _, err := Unmarshal(w.B); err == nil {
		t.Fatal("hostile slice length decoded without error")
	}
}
