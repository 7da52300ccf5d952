package parbh

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/vec"
)

// TestWireRoundTripAllocs holds the hot function-shipping and migration
// payloads to the allocation counts measured before their codecs became
// one field list per type: an encode plus a decode, with the decoded
// buffers handed back to their pools the way a receiver hands them back.
func TestWireRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 128
	req := reqBin{Entries: make([]reqEntry, n), More: true}
	rep := repBin{Slots: make([]int32, n), F: make([]vec.V3, n)}
	parts := make([]wireParticle, n)
	cases := []struct {
		name    string
		v       any
		recycle func(any)
		max     float64
	}{
		{"reqBin", req, func(v any) { reqEntryPool.put(v.(reqBin).Entries) }, 17},
		{"repBin", rep, func(v any) { r := v.(repBin); slotPool.put(r.Slots); vec3Pool.put(r.F) }, 17},
		{"wireParticles", parts, func(v any) { wirePool.put(v.([]wireParticle)) }, 19},
	}
	for _, tc := range cases {
		got := testing.AllocsPerRun(200, func() {
			b, err := transport.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			out, err := transport.Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			tc.recycle(out)
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per round trip, at most %.0f before", tc.name, got, tc.max)
		}
	}
}
