package parbh

import (
	"math"
	"testing"

	"repro/internal/let"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/vec"
)

// fuzzLETSeeds returns valid encodings of every LET wire kind: peer
// bounds, a bulk ship message and a load-return message.
func fuzzLETSeeds(t testing.TB) [][]byte {
	t.Helper()
	full := &let.Section{
		BranchKey: 0x51,
		Cols: tree.Cols{
			Kind: []uint8{tree.KindInternal, tree.KindClosed, tree.KindLeaf},
			Skip: []int32{3, 2, 3},
			ComX: []float64{0.5, 0.25, 0},
			ComY: []float64{0.5, 0.25, 0},
			ComZ: []float64{0.5, 0.25, 0},
			Mass: []float64{2, 1, 0},
			Side: []float64{1, 0.5, 0},
			Lo:   []int32{-1, -1, 0},
			Hi:   []int32{-1, -1, 2},
			ID:   []int32{4, 9},
			PX:   []float64{0.1, 0.2},
			PY:   []float64{0.3, 0.4},
			PZ:   []float64{0.5, 0.6},
			PM:   []float64{1, 1},
		},
	}
	var out [][]byte
	for _, v := range []any{
		let.Bounds{Has: true, Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}},
		let.Bounds{},
		letShipMsg{Secs: []*let.Section{full}},
		letShipMsg{},
		letLoadMsg{Keys: []uint64{0x51, 0x51}, Nodes: []int32{0, 2}, Deltas: []int64{7, 2}},
		letLoadMsg{},
	} {
		b, err := transport.Marshal(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeLETWire hammers the LET wire kinds with truncated and
// corrupt inputs: the decoders must return errors or values, never
// panic, and anything that decodes must re-encode (the codec space is
// closed under round trips).
func FuzzDecodeLETWire(f *testing.F) {
	for _, b := range fuzzLETSeeds(f) {
		f.Add(b)
		if len(b) > 4 {
			f.Add(b[:len(b)-3]) // truncated
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := transport.Unmarshal(body)
		if err != nil {
			return
		}
		if _, rerr := transport.Marshal(v); rerr != nil {
			t.Fatalf("decoded %T failed to re-encode: %v", v, rerr)
		}
	})
}

// TestLETWireRoundTrip pins lossless round trips for the LET wire kinds,
// including the signed-zero bit patterns the kernels' sums depend on.
func TestLETWireRoundTrip(t *testing.T) {
	for _, b := range fuzzLETSeeds(t) {
		v, err := transport.Unmarshal(b)
		if err != nil {
			t.Fatalf("seed failed to decode: %v", err)
		}
		b2, err := transport.Marshal(v)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("round trip not byte-stable for %T", v)
		}
	}
	// Sections with ±0 coordinates must round-trip bit-exactly: the
	// receiver grafts them into signed-zero-sensitive sums.
	s := &let.Section{
		BranchKey: 1,
		Cols: tree.Cols{
			Kind: []uint8{tree.KindLeaf},
			Skip: []int32{1},
			ComX: []float64{0}, ComY: []float64{0}, ComZ: []float64{0},
			Mass: []float64{0}, Side: []float64{0},
			Lo: []int32{0}, Hi: []int32{1},
			ID: []int32{3},
			PX: []float64{negZero()}, PY: []float64{0}, PZ: []float64{0},
			PM: []float64{1},
		},
	}
	b, err := transport.Marshal(letShipMsg{Secs: []*let.Section{s}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := transport.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(letShipMsg).Secs[0]
	if !math.Signbit(got.PX[0]) || math.Signbit(got.PY[0]) {
		t.Error("section with -0.0 coordinate did not round-trip bit-exactly")
	}
	// A node kind no section holds travels as a code no decoder accepts.
	b, err = transport.Marshal(letShipMsg{Secs: []*let.Section{{Cols: tree.Cols{Kind: []uint8{tree.KindTop}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Unmarshal(b); err == nil {
		t.Error("a section node of kind KindTop decoded")
	}
	// A section the receiver's sweep could not walk in bounds fails the
	// decode.
	for name, spoil := range map[string]func(c *tree.Cols){
		"short node column":           func(c *tree.Cols) { c.Side = c.Side[:2] },
		"short particle column":       func(c *tree.Cols) { c.PM = c.PM[:1] },
		"skip past the section":       func(c *tree.Cols) { c.Skip[0] = 4 },
		"child skips past its parent": func(c *tree.Cols) { c.Skip[0] = 2 },
		"skip backwards":              func(c *tree.Cols) { c.Skip[2] = 2 },
		"leaf past the particles":     func(c *tree.Cols) { c.Hi[2] = 3 },
		"leaf range reversed":         func(c *tree.Cols) { c.Lo[2] = 2; c.Hi[2] = 1 },
	} {
		sec := &let.Section{Cols: tree.Cols{
			Kind: []uint8{tree.KindInternal, tree.KindClosed, tree.KindLeaf},
			Skip: []int32{3, 3, 3},
			ComX: []float64{0.5, 0.25, 0}, ComY: []float64{0.5, 0.25, 0}, ComZ: []float64{0.5, 0.25, 0},
			Mass: []float64{2, 1, 0}, Side: []float64{1, 0.5, 0},
			Lo: []int32{-1, -1, 0}, Hi: []int32{-1, -1, 2},
			ID: []int32{4, 9}, PX: []float64{0.1, 0.2}, PY: []float64{0.3, 0.4}, PZ: []float64{0.5, 0.6}, PM: []float64{1, 1},
		}}
		spoil(&sec.Cols)
		b, err := transport.Marshal(letShipMsg{Secs: []*let.Section{sec}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transport.Unmarshal(b); err == nil {
			t.Errorf("%s: the section decoded", name)
		}
	}
}

func negZero() float64 { return math.Copysign(0, -1) }
