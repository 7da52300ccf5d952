package recio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Writer is an append-only encode buffer. All integers are
// little-endian and fixed-width; floats are IEEE-754 bit patterns, so a
// round trip is bit-exact.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)    { w.B = append(w.B, v) }
func (w *Writer) U16(v uint16)  { w.B = binary.LittleEndian.AppendUint16(w.B, v) }
func (w *Writer) U32(v uint32)  { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)  { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I32(v int32)   { w.U32(uint32(v)) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// nilLen is the length-prefix sentinel for nil slices.
const nilLen = 0xFFFFFFFF

// Len writes a slice length. Nil and empty slices are distinguished so
// decoded values compare deep-equal to the originals.
func (w *Writer) Len(n int, isNil bool) {
	if isNil {
		w.U32(nilLen)
		return
	}
	w.U32(uint32(n))
}

// Reader decodes a buffer written by Writer. Errors are sticky: after
// the first failure every subsequent read returns zero values and Err
// reports the failure. Length prefixes are validated against the bytes
// actually remaining, so a corrupt length cannot drive allocation
// beyond the input size.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail records a decode error found by the caller (a value out of range,
// a nested payload of the wrong type) unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// errTruncated is what a read past the end of the input fails with. It
// is one fixed value, not a formatted one, so that need — and with it
// every fixed-width read and Coder field below — is small enough to
// inline: a field then costs no call when encoding and none or one when
// decoding, like the hand-written loops this package replaced.
var errTruncated = errors.New("recio: truncated input")

// need reports whether n more bytes can be read, failing the reader when
// they cannot.
func (r *Reader) need(n int) bool {
	if r.err == nil && n >= 0 && len(r.b)-r.off >= n {
		return true
	}
	if r.err == nil {
		r.err = errTruncated
	}
	return false
}

// Take returns the next n bytes without copying them, or nil after
// failing the reader when fewer remain.
func (r *Reader) Take(n int) []byte {
	if !r.need(n) {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	r.off += 2
	return binary.LittleEndian.Uint16(r.b[r.off-2:])
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

func (r *Reader) I32() int32   { return int32(r.U32()) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// SliceLen reads a slice length written by Writer.Len and validates it
// against the remaining input at elemSize bytes per element. It returns
// (0, false) for a nil slice — and for a bogus length, after failing the
// reader — and (n, true) otherwise.
func (r *Reader) SliceLen(elemSize int) (n int, notNil bool) {
	v := r.U32()
	if r.err != nil || v == nilLen {
		return 0, false
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if int(v) > r.Remaining()/elemSize {
		r.Fail("recio: slice length %d exceeds remaining input (%d bytes, elem size %d)",
			v, r.Remaining(), elemSize)
		return 0, false
	}
	return int(v), true
}

// Coder walks the fields of one value in one direction: constructed
// around a Writer it encodes them, around a Reader (Decoding set) it
// decodes them. A type's wire layout is therefore written down once, as
// one function of (*Coder, *T) that names each field in order, and the
// two directions cannot drift apart. Decode errors are the Reader's
// sticky ones; encoding cannot fail.
type Coder struct {
	W        Writer
	R        Reader
	Decoding bool
}

// Decoder returns a Coder that decodes b.
func Decoder(b []byte) *Coder { return &Coder{R: Reader{b: b}, Decoding: true} }

// Err returns the first decode error, if any.
func (c *Coder) Err() error { return c.R.err }

func (c *Coder) U8(v *uint8) {
	if c.Decoding {
		*v = c.R.U8()
	} else {
		c.W.U8(*v)
	}
}

func (c *Coder) U16(v *uint16) {
	if c.Decoding {
		*v = c.R.U16()
	} else {
		c.W.U16(*v)
	}
}

func (c *Coder) U32(v *uint32) {
	if c.Decoding {
		*v = c.R.U32()
	} else {
		c.W.U32(*v)
	}
}

func (c *Coder) U64(v *uint64) {
	if c.Decoding {
		*v = c.R.U64()
	} else {
		c.W.U64(*v)
	}
}

func (c *Coder) I32(v *int32) {
	if c.Decoding {
		*v = c.R.I32()
	} else {
		c.W.I32(*v)
	}
}

func (c *Coder) I64(v *int64) {
	if c.Decoding {
		*v = c.R.I64()
	} else {
		c.W.I64(*v)
	}
}

func (c *Coder) F64(v *float64) {
	if c.Decoding {
		*v = c.R.F64()
	} else {
		c.W.F64(*v)
	}
}

// Bool codes a flag as one byte, 1 or 0; any non-zero byte decodes true.
func (c *Coder) Bool(v *bool) {
	if c.Decoding {
		*v = c.R.U8() != 0
	} else if *v {
		c.W.U8(1)
	} else {
		c.W.U8(0)
	}
}

// Int32 codes an int-kinded field (a count, an enum) as an i32.
func Int32[T ~int](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.I32())
	} else {
		c.W.I32(int32(*v))
	}
}

// Int64 codes an int-kinded field as an i64.
func Int64[T ~int](c *Coder, v *T) {
	if c.Decoding {
		*v = T(c.R.I64())
	} else {
		c.W.I64(int64(*v))
	}
}

// Str codes a length-prefixed string.
func (c *Coder) Str(v *string) {
	if !c.Decoding {
		c.W.U32(uint32(len(*v)))
		c.W.B = append(c.W.B, *v...)
		return
	}
	n, _ := c.R.SliceLen(1)
	*v = string(c.R.Take(n))
}

// Bytes codes a length-prefixed byte slice, nil distinguished from
// empty; a decoded slice is a copy, never an alias of the input.
func (c *Coder) Bytes(v *[]byte) {
	if !c.Decoding {
		c.W.Len(len(*v), *v == nil)
		c.W.B = append(c.W.B, *v...)
		return
	}
	*v = nil
	if n, notNil := c.R.SliceLen(1); notNil {
		*v = append(make([]byte, 0, n), c.R.Take(n)...)
	}
}

// V3 codes a vector as its three coordinates (against the Reader and
// Writer directly: positions and forces are most of what crosses the
// wire, and this keeps a vector at one call).
func (c *Coder) V3(v *vec.V3) {
	if c.Decoding {
		*v = vec.V3{X: c.R.F64(), Y: c.R.F64(), Z: c.R.F64()}
		return
	}
	c.W.F64(v.X)
	c.W.F64(v.Y)
	c.W.F64(v.Z)
}

// Slice codes a length-prefixed slice, nil distinguished from empty, by
// calling elem on every element in order. minSize is the smallest
// encoding of one element: a decoded length is refused unless that many
// bytes per element remain, before anything is allocated.
func Slice[T any](c *Coder, s *[]T, minSize int, elem func(*Coder, *T)) {
	if !c.Decoding {
		c.W.Len(len(*s), *s == nil)
	} else if n, notNil := c.R.SliceLen(minSize); !notNil {
		*s = nil
	} else {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

func (c *Coder) U8s(s *[]uint8)    { Slice(c, s, 1, (*Coder).U8) }
func (c *Coder) I32s(s *[]int32)   { Slice(c, s, 4, (*Coder).I32) }
func (c *Coder) F64s(s *[]float64) { Slice(c, s, 8, (*Coder).F64) }
