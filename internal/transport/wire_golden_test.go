package transport_test

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wiregolden"
)

// TestWireGolden pins the encoded bytes of the transport block (wire IDs
// 1–20); see package wiregolden.
func TestWireGolden(t *testing.T) {
	wiregolden.Check(t, "testdata/wire.golden", 1, 20, transport.GoldenSamples...)
}
