package parbh

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/vec"
)

// fuzzShipSeeds returns valid encodings of function shipping's request
// and reply bins.
func fuzzShipSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, v := range []any{
		reqBin{Parts: []reqPart{{Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Self: 4, N: 2}, {Pos: vec.V3{X: 1}, Self: 9, N: 1}},
			Branches: []uint64{0x51, 0x52, 0x51}, More: true},
		reqBin{},
		repBin{F: []vec.V3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}}},
		repBin{P: []float64{-0.75}},
		repBin{},
	} {
		b, err := transport.Marshal(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeShipWire hammers the request and reply kinds with truncated
// and corrupt inputs: the decoders must return errors or values, never
// panic; a request that decodes must give its owner's service exactly its
// keys to read; and anything that decodes must re-encode.
func FuzzDecodeShipWire(f *testing.F) {
	for _, b := range fuzzShipSeeds(f) {
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
		if bin, ok := v.(reqBin); ok {
			keys := 0
			for _, q := range bin.Parts {
				if q.N < 0 {
					t.Fatalf("decoded a request particle with %d entries", q.N)
				}
				keys += int(q.N)
			}
			if keys != len(bin.Branches) {
				t.Fatalf("decoded request particles hold %d entries, the bin %d keys", keys, len(bin.Branches))
			}
		}
		if _, rerr := transport.Marshal(v); rerr != nil {
			t.Fatalf("decoded %T failed to re-encode: %v", v, rerr)
		}
	})
}

// TestShipWireRejectsBadCounts holds the request decoder to its particles'
// entry counts: a negative count, or counts that do not sum to the bin's
// keys, fail the decode rather than the owner's service.
func TestShipWireRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		bin  reqBin
	}{
		{"negative", reqBin{Parts: []reqPart{{N: 3}, {N: -1}}, Branches: []uint64{1, 2}}},
		{"short", reqBin{Parts: []reqPart{{N: 1}}, Branches: []uint64{1, 2}}},
		{"long", reqBin{Parts: []reqPart{{N: 2}, {N: 1}}, Branches: []uint64{1, 2}}},
		{"no keys", reqBin{Parts: []reqPart{{N: 1}}}},
	} {
		b, err := transport.Marshal(tc.bin)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transport.Unmarshal(b); err == nil {
			t.Errorf("%s: request with counts %v over %d keys decoded", tc.name, tc.bin.Parts, len(tc.bin.Branches))
		}
	}
}
