package msg

import (
	"testing"

	"repro/internal/wiregolden"
)

// TestWireGolden pins the encoded bytes of the msg block (wire IDs
// 21–30); see package wiregolden.
func TestWireGolden(t *testing.T) {
	wiregolden.Check(t, "testdata/wire.golden", 21, 30,
		pack{ranks: []int{0, 3}, items: []any{int(7), nil, []float64{1.5}}, words: []int{1, 2, 0}},
		pack{},
		pack{ranks: []int{}, items: []any{}, words: []int{}},
		[3]any{int32(1), "two", nil},
		Replayed{Now: 1.25, Stats: Stats{ComputeTime: 0.5, CommTime: 0.25, Messages: 3, Words: 40, Flops: 1e6}},
	)
}
