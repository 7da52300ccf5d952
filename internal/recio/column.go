package recio

import (
	"unsafe"

	"repro/internal/vec"
)

// Column codes a length-prefixed slice of fixed-size records, nil
// distinguished from empty: size is the encoding of one record and elem
// lists its fields, as for Slice. Where the host's memory order is the
// wire's (little-endian, and not under the purego build tag) and a T
// occupies exactly size bytes, the column is one copy in each
// direction: a T's memory is then its encoding, provided elem names
// fixed-width fields in declaration order, which is what a column's
// element type must be. Anywhere else — and for a T with padding, which
// makes it larger than size — elem runs per record, as Slice does. The
// two give the same bytes and the same errors.
func Column[T any](c *Coder, s *[]T, size int, elem func(*Coder, *T)) {
	if !oneCopy || int(unsafe.Sizeof(*new(T))) != size {
		Slice(c, s, size, elem)
		return
	}
	copyColumn(c, s, size)
}

// copyColumn codes a column as one copy of its memory. The decoded slice
// is a fresh allocation, never an alias of the input.
func copyColumn[T any](c *Coder, s *[]T, size int) {
	if !c.Decoding {
		c.W.Len(len(*s), *s == nil)
		c.W.B = append(c.W.B, columnBytes(*s)...)
		return
	}
	n, notNil := c.R.SliceLen(size)
	if !notNil {
		*s = nil
		return
	}
	*s = make([]T, n)
	copy(columnBytes(*s), c.R.Take(n*size))
}

// columnBytes is the memory of s as bytes.
func columnBytes[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

func (c *Coder) U16s(s *[]uint16)  { Column(c, s, 2, (*Coder).U16) }
func (c *Coder) I32s(s *[]int32)   { Column(c, s, 4, (*Coder).I32) }
func (c *Coder) U64s(s *[]uint64)  { Column(c, s, 8, (*Coder).U64) }
func (c *Coder) I64s(s *[]int64)   { Column(c, s, 8, (*Coder).I64) }
func (c *Coder) F64s(s *[]float64) { Column(c, s, 8, (*Coder).F64) }
func (c *Coder) V3s(s *[]vec.V3)   { Column(c, s, 24, (*Coder).V3) }
