package recio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// read runs both readers on the record at off of data — the slice parser
// and the io.ReaderAt one — and requires them to agree.
func read(t testing.TB, data []byte, off int) (Record, error) {
	t.Helper()
	rec, err := Parse(data[off:])
	var buf []byte
	rec2, err2 := ReadAt(bytes.NewReader(data), int64(off), int64(len(data)), &buf)
	if errors.Is(err, ErrTorn) != errors.Is(err2, ErrTorn) || errors.Is(err, ErrCorrupt) != errors.Is(err2, ErrCorrupt) ||
		(err == nil) != (err2 == nil) || rec.Kind != rec2.Kind || rec.Len != rec2.Len || !bytes.Equal(rec.Body, rec2.Body) {
		t.Fatalf("Parse = (%+v, %v) but ReadAt = (%+v, %v)", rec, err, rec2, err2)
	}
	if err == nil {
		if kind, n, err := ReadHeader(bytes.NewReader(data), int64(off), int64(len(data))); err != nil || kind != rec.Kind || int(n) != rec.Len {
			t.Fatalf("ReadHeader = (%d, %d, %v) for record %+v", kind, n, err, rec)
		}
	}
	return rec, err
}

func TestRecordRoundTrip(t *testing.T) {
	prefix := []byte("NBX1")
	buf := Append(prefix, 7, []byte("hello"))
	start := len(buf)
	buf = Begin(buf)
	buf = append(buf, "in place"...)
	buf = Finish(buf, start, 9)
	buf = Append(buf, 0, nil)

	off := len(prefix)
	for _, want := range []struct {
		kind byte
		body string
	}{{7, "hello"}, {9, "in place"}, {0, ""}} {
		rec, err := read(t, buf, off)
		if err != nil || rec.Kind != want.kind || string(rec.Body) != want.body || rec.Len != HeaderLen+len(want.body)+CRCLen {
			t.Fatalf("at %d: got (%+v, %v), want kind %d body %q", off, rec, err, want.kind, want.body)
		}
		off += rec.Len
	}
	if off != len(buf) {
		t.Fatalf("records end at %d of %d bytes", off, len(buf))
	}
}

// The one torn-tail rule, on both readers: a record that runs past the
// end, or that ends exactly at the end and fails its checksum, is torn;
// every other failure is corruption.
func TestTornVersusCorrupt(t *testing.T) {
	first := Append(nil, 1, []byte("first record"))
	both := Append(first, 2, []byte("second record"))

	for cut := 0; cut < len(both); cut++ {
		if cut == len(first) {
			continue
		}
		off := 0
		if cut > len(first) {
			off = len(first)
		}
		if _, err := read(t, both[:cut], off); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: err = %v, want ErrTorn", cut, err)
		}
	}
	for i := len(first) + 4; i < len(both); i++ { // kind, body and checksum of the last record
		bad := append([]byte(nil), both...)
		bad[i] ^= 0x40
		if _, err := read(t, bad, len(first)); !errors.Is(err, ErrTorn) {
			t.Fatalf("flip at %d of the last record: err = %v, want ErrTorn", i, err)
		}
	}
	for i := 4; i < len(first); i++ {
		bad := append([]byte(nil), both...)
		bad[i] ^= 0x40
		if _, err := read(t, bad, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d with a record behind it: err = %v, want ErrCorrupt", i, err)
		}
	}
	// An absurd length is corruption however little data follows it, and
	// is refused before anything is allocated.
	huge := binary.LittleEndian.AppendUint32(nil, MaxBody+1)
	huge = append(huge, 1)
	if _, err := read(t, huge, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length over MaxBody: err = %v, want ErrCorrupt", err)
	}
	var buf []byte
	if _, err := ReadAt(bytes.NewReader(huge), 0, int64(len(huge)), &buf); buf != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length over MaxBody: ReadAt allocated %d bytes, err %v", cap(buf), err)
	}
	// A shrunken length leaves a checksum failure with bytes behind it.
	short := append([]byte(nil), first...)
	binary.LittleEndian.PutUint32(short, uint32(len("first record")-2))
	if _, err := read(t, short, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("shrunken length: err = %v, want ErrCorrupt", err)
	}
}

// ReadAt reuses a large enough buffer and replaces a small one.
func TestReadAtReusesBuffer(t *testing.T) {
	data := Append(Append(nil, 1, bytes.Repeat([]byte{7}, 100)), 2, []byte("tiny"))
	var buf []byte
	rec, err := ReadAt(bytes.NewReader(data), 0, int64(len(data)), &buf)
	if err != nil {
		t.Fatal(err)
	}
	held := &buf[0]
	rec2, err := ReadAt(bytes.NewReader(data), int64(rec.Len), int64(len(data)), &buf)
	if err != nil || string(rec2.Body) != "tiny" || &buf[0] != held {
		t.Fatalf("second read: (%+v, %v), buffer reused = %v", rec2, err, &buf[0] == held)
	}
}

// FuzzRecord is the one framing fuzzer of the repository (the frame
// store and the journal fuzz only their body decoders): arbitrary bytes
// must never panic either reader or make the two disagree, an accepted
// record must lie inside the input and re-encode to the bytes it was
// read from, and a rejection must be one of the two sentinels.
func FuzzRecord(f *testing.F) {
	f.Add(Append(nil, 1, []byte(`{"id":"g1"}`)))
	f.Add(Append(Append(nil, 2, []byte("delta")), 3, nil))
	f.Add(Append(nil, 1, bytes.Repeat([]byte{0xAB}, 300))[:200])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, HeaderLen+CRCLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := read(t, data, 0)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection is neither torn nor corrupt: %v", err)
			}
			return
		}
		if rec.Len > len(data) {
			t.Fatalf("accepted record over-reads: %d > %d", rec.Len, len(data))
		}
		if !bytes.Equal(Append(nil, rec.Kind, rec.Body), data[:rec.Len]) {
			t.Fatal("accepted record does not re-encode to its own bytes")
		}
	})
}
