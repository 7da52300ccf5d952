package recio

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vec"
)

type sample struct {
	A     uint8
	B     uint16
	C     uint32
	D     uint64
	E     int32
	F     int64
	G     float64
	Flag  bool
	N     int
	Kind  sampleKind
	Name  string
	Raw   []byte
	Pos   vec.V3
	Items []item
	U8s   []uint8
	I32s  []int32
	F64s  []float64
}

type sampleKind int

type item struct {
	ID  int64
	Tag string
}

// codeSample is the single field list both directions run.
func codeSample(c *Coder, v *sample) {
	c.U8(&v.A)
	c.U16(&v.B)
	c.U32(&v.C)
	c.U64(&v.D)
	c.I32(&v.E)
	c.I64(&v.F)
	c.F64(&v.G)
	c.Bool(&v.Flag)
	Int64(c, &v.N)
	Int32(c, &v.Kind)
	c.Str(&v.Name)
	c.Bytes(&v.Raw)
	c.V3(&v.Pos)
	Slice(c, &v.Items, 12, func(c *Coder, it *item) {
		c.I64(&it.ID)
		c.Str(&it.Tag)
	})
	Column(c, &v.U8s, 1, (*Coder).U8)
	c.I32s(&v.I32s)
	c.F64s(&v.F64s)
}

func TestCoderRoundTrip(t *testing.T) {
	for _, in := range []sample{
		{},
		{A: 1, B: 2, C: 3, D: math.MaxUint64, E: -5, F: math.MinInt64, G: math.Inf(-1), Flag: true, N: -7, Kind: 3,
			Name: "κόσμος", Raw: []byte{1, 2, 3}, Pos: vec.V3{X: 1, Y: 2, Z: 3},
			Items: []item{{ID: 9, Tag: "a"}, {ID: -1}}, U8s: []uint8{4, 5}, I32s: []int32{-6}, F64s: []float64{0.5, math.Pi}},
		{Raw: []byte{}, Items: []item{}, U8s: []uint8{}, I32s: []int32{}, F64s: []float64{}}, // empty is not nil
	} {
		enc := &Coder{}
		codeSample(enc, &in)
		var out sample
		dec := Decoder(enc.W.B)
		codeSample(dec, &out)
		if err := dec.Err(); err != nil || dec.R.Remaining() != 0 {
			t.Fatalf("decode: %v, %d bytes left", err, dec.R.Remaining())
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip:\n in %#v\nout %#v", in, out)
		}
		// Every truncation fails, stickily, without a panic.
		for cut := 0; cut < len(enc.W.B); cut++ {
			var junk sample
			dec := Decoder(enc.W.B[:cut])
			codeSample(dec, &junk)
			if dec.Err() == nil {
				t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(enc.W.B))
			}
		}
	}
}

// A decoded byte slice must not alias the input buffer, and a hostile
// length must fail before it allocates.
func TestCoderBounds(t *testing.T) {
	enc := &Coder{}
	raw := []byte("payload")
	enc.Bytes(&raw)
	var got []byte
	Decoder(enc.W.B).Bytes(&got)
	enc.W.B[len(enc.W.B)-1] ^= 0xFF
	if string(got) != "payload" {
		t.Fatalf("decoded bytes alias the input: %q", got)
	}

	var w Writer
	w.U32(1 << 30) // claims 8 GiB of floats in a 4-byte input
	var f []float64
	dec := Decoder(w.B)
	dec.F64s(&f)
	if dec.Err() == nil || f != nil || !strings.Contains(dec.Err().Error(), "exceeds remaining input") {
		t.Fatalf("hostile slice length: err %v, %d elements", dec.Err(), len(f))
	}
}
