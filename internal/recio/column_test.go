package recio

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"

	"repro/internal/vec"
)

// littleEndian reports whether this host's memory order is the wire's.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// copies reports whether copyColumn is defined for T at size bytes a
// record: on a little-endian host, for a T without padding.
func copies[T any](size int) bool { return littleEndian && int(unsafe.Sizeof(*new(T))) == size }

// rec32 has a function-shipping request particle's shape: a 32-byte
// record of fixed-width fields without padding.
type rec32 struct {
	Pos     vec.V3
	Self, N int32
}

func codeRec32(c *Coder, r *rec32) {
	c.V3(&r.Pos)
	c.I32(&r.Self)
	c.I32(&r.N)
}

// padded holds four bytes of padding, so it is larger in memory than on
// the wire and Column must code it record by record.
type padded struct {
	A int32
	B float64
}

func codePadded(c *Coder, p *padded) {
	c.I32(&p.A)
	c.F64(&p.B)
}

// sameColumn reports whether two decoded columns are the same bit for
// bit: both nil, or of one length with equal memory.
func sameColumn[T any](a, b []T) bool {
	return (a == nil) == (b == nil) && len(a) == len(b) && bytes.Equal(columnBytes(a), columnBytes(b))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// decodeBoth decodes b as one column by the per-record path, by Column
// and, where it is defined, by the one-copy path, and fails unless they
// agree on the value, the error and the bytes consumed. It returns the
// per-record result.
func decodeBoth[T any](t testing.TB, b []byte, size int, elem func(*Coder, *T)) ([]T, *Coder) {
	t.Helper()
	var loop []T
	dl := Decoder(b)
	Slice(dl, &loop, size, elem)
	var sel []T
	ds := Decoder(b)
	Column(ds, &sel, size, elem)
	decs := map[string]*Coder{"Column": ds}
	vals := map[string][]T{"Column": sel}
	if copies[T](size) {
		var cp []T
		dc := Decoder(b)
		copyColumn(dc, &cp, size)
		decs["copyColumn"], vals["copyColumn"] = dc, cp
	}
	for name, d := range decs {
		if errText(d.Err()) != errText(dl.Err()) || d.R.Remaining() != dl.R.Remaining() || !sameColumn(vals[name], loop) {
			t.Fatalf("%s decodes %x to %v (err %v, %d left), the per-record path to %v (err %v, %d left)",
				name, b, vals[name], d.Err(), d.R.Remaining(), loop, dl.Err(), dl.R.Remaining())
		}
	}
	return loop, dl
}

// encodeBoth encodes s by every path and fails unless the bytes are
// equal; it returns them.
func encodeBoth[T any](t testing.TB, s []T, size int, elem func(*Coder, *T)) []byte {
	t.Helper()
	loop := &Coder{}
	Slice(loop, &s, size, elem)
	sel := &Coder{}
	Column(sel, &s, size, elem)
	if !bytes.Equal(sel.W.B, loop.W.B) {
		t.Fatalf("Column encodes %v to %x, the per-record path to %x", s, sel.W.B, loop.W.B)
	}
	if copies[T](size) {
		cp := &Coder{}
		copyColumn(cp, &s, size)
		if !bytes.Equal(cp.W.B, loop.W.B) {
			t.Fatalf("copyColumn encodes %v to %x, the per-record path to %x", s, cp.W.B, loop.W.B)
		}
	}
	return loop.W.B
}

// checkColumn runs every column in cols through both paths: the same
// bytes out, the same values back, and the same errors for every
// truncation and for a length that claims more records than remain.
func checkColumn[T any](t *testing.T, size int, elem func(*Coder, *T), cols ...[]T) {
	t.Helper()
	for _, in := range cols {
		b := encodeBoth(t, in, size, elem)
		out, dec := decodeBoth(t, b, size, elem)
		if dec.Err() != nil || dec.R.Remaining() != 0 || !sameColumn(out, in) {
			t.Fatalf("round trip of %v: %v (err %v)", in, out, dec.Err())
		}
		for cut := 0; cut < len(b); cut++ {
			if _, dec := decodeBoth(t, b[:cut], size, elem); dec.Err() == nil {
				t.Fatalf("%x cut to %d bytes decoded cleanly", b, cut)
			}
		}
		if in == nil {
			continue
		}
		for _, n := range []uint32{uint32(len(in) + 1), 1 << 30, nilLen - 1} {
			bad := binary.LittleEndian.AppendUint32(nil, n)
			if _, dec := decodeBoth(t, append(bad, b[4:]...), size, elem); dec.Err() == nil {
				t.Fatalf("length %d over %d records decoded cleanly", n, len(in))
			}
		}
	}
}

var oddFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), -math.SmallestNonzeroFloat64,
	math.MaxFloat64, 1, math.Pi,
}

func TestColumnsMatchPerRecord(t *testing.T) {
	checkColumn(t, 1, (*Coder).U8, nil, []uint8{}, []uint8{0, 1, 0xff})
	checkColumn(t, 2, (*Coder).U16, nil, []uint16{}, []uint16{0, 1, 0xbeef, 0xffff})
	checkColumn(t, 4, (*Coder).I32, nil, []int32{}, []int32{0, -1, math.MinInt32, math.MaxInt32})
	checkColumn(t, 8, (*Coder).U64, nil, []uint64{}, []uint64{0, 1, math.MaxUint64, 0x0123456789abcdef})
	checkColumn(t, 8, (*Coder).I64, nil, []int64{}, []int64{0, -1, math.MinInt64, math.MaxInt64})
	checkColumn(t, 8, (*Coder).F64, nil, []float64{}, oddFloats)
	var v3s []vec.V3
	var recs []rec32
	for i := 0; i+2 < len(oddFloats); i++ {
		v := vec.V3{X: oddFloats[i], Y: oddFloats[i+1], Z: oddFloats[i+2]}
		v3s = append(v3s, v)
		recs = append(recs, rec32{Pos: v, Self: int32(i) - 3, N: math.MaxInt32 - int32(i)})
	}
	checkColumn(t, 24, (*Coder).V3, nil, []vec.V3{}, v3s)
	checkColumn(t, 32, codeRec32, nil, []rec32{}, recs)
	checkColumn(t, 12, codePadded, nil, []padded{}, []padded{{A: -1, B: math.Inf(1)}, {A: 7, B: math.Copysign(0, -1)}})
}

// A column's element is its encoding only without padding.
func TestColumnLayouts(t *testing.T) {
	var v vec.V3
	if unsafe.Sizeof(v) != 24 || unsafe.Offsetof(v.Y) != 8 || unsafe.Offsetof(v.Z) != 16 {
		t.Fatalf("vec.V3 is %d bytes, Y at %d, Z at %d; want 24, 8, 16", unsafe.Sizeof(v), unsafe.Offsetof(v.Y), unsafe.Offsetof(v.Z))
	}
	if unsafe.Sizeof(padded{}) == 12 {
		t.Fatal("padded has no padding: the fallback for padded records goes untested")
	}
}

// FuzzColumns decodes arbitrary input as every column type by both paths,
// which must agree bit for bit, errors included; what decodes must
// re-encode, by both paths, to the bytes it was read from.
func FuzzColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(binary.LittleEndian.AppendUint64([]byte{1, 0, 0, 0}, 0x7ff0000000000001))
	f.Add([]byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzColumn(t, b, 1, (*Coder).U8)
		fuzzColumn(t, b, 2, (*Coder).U16)
		fuzzColumn(t, b, 4, (*Coder).I32)
		fuzzColumn(t, b, 8, (*Coder).U64)
		fuzzColumn(t, b, 8, (*Coder).I64)
		fuzzColumn(t, b, 8, (*Coder).F64)
		fuzzColumn(t, b, 24, (*Coder).V3)
		fuzzColumn(t, b, 32, codeRec32)
	})
}

func fuzzColumn[T any](t *testing.T, b []byte, size int, elem func(*Coder, *T)) {
	out, dec := decodeBoth(t, b, size, elem)
	if dec.Err() != nil {
		return
	}
	if got, want := encodeBoth(t, out, size, elem), b[:len(b)-dec.R.Remaining()]; !bytes.Equal(got, want) {
		t.Fatalf("%v re-encodes to %x, read from %x", out, got, want)
	}
}
