package parbh

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/vec"
)

// TestWireRoundTripAllocs holds the hot function-shipping and migration
// payloads to the allocation counts measured before their codecs became
// one field list per type, plus the decoded slices, which a pool supplied
// then and the decoder allocates now: an encode plus a decode.
func TestWireRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 128
	req := reqBin{Parts: make([]reqPart, n/4), Branches: make([]uint64, n), More: true}
	for i := range req.Parts {
		req.Parts[i].N = 4
	}
	rep := repBin{F: make([]vec.V3, n)}
	parts := make([]wireParticle, n)
	cases := []struct {
		name string
		v    any
		max  float64
	}{
		{"reqBin", req, 16},
		{"repBin", rep, 16},
		{"wireParticles", parts, 19},
	}
	for _, tc := range cases {
		got := testing.AllocsPerRun(200, func() {
			b, err := transport.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := transport.Unmarshal(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per round trip", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per round trip, at most %.0f before", tc.name, got, tc.max)
		}
	}
}
