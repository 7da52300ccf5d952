package parbh

import (
	"testing"

	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
	"repro/internal/wiregolden"
)

// TestWireGolden pins the encoded bytes of the parbh block (wire IDs
// 31–50); see package wiregolden.
func TestWireGolden(t *testing.T) {
	particles := []wireParticle{
		{ID: 4, Mass: 0.5, Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Vel: vec.V3{X: -1, Y: -2, Z: -3}},
		{ID: 9, Mass: 0.25, Pos: vec.V3{X: 0.4, Y: 0.5, Z: 0.6}},
	}
	sumForce := BranchSummary{Key: 0x51, Owner: 2, Count: 40, Mass: 1.5, COM: vec.V3{X: 0.5, Y: 0.25, Z: 0.125}}
	sumPot := BranchSummary{Key: 0x52, Owner: 3, Count: 7, Mass: 0.75, COM: vec.V3{X: 1, Y: 2, Z: 3}, Exp: []float64{1, 0.5, -0.5}}
	full := &let.Section{
		BranchKey: 0x51,
		Cols: tree.Cols{
			Kind: []uint8{tree.KindInternal, tree.KindClosed, tree.KindLeaf},
			Skip: []int32{3, 2, 3},
			ComX: []float64{0.5, 0.25, 0}, ComY: []float64{0.5, 0.25, 0}, ComZ: []float64{0.5, 0.25, 0},
			Mass: []float64{2, 1, 0}, Side: []float64{1, 0.5, 0},
			Lo: []int32{-1, -1, 0}, Hi: []int32{-1, -1, 2},
			ID: []int32{4, 9},
			PX: []float64{0.1, 0.2}, PY: []float64{0.3, 0.4}, PZ: []float64{0.5, 0.6}, PM: []float64{1, 1},
		},
		ExpFloats: []float64{1, 2, 3, 4, 5, 6}, ExpStride: 2,
	}
	out := rankOut{
		Rank:      1,
		MsgStats:  msg.Stats{ComputeTime: 0.5, CommTime: 0.25, Messages: 3, Words: 40, Flops: 1e6},
		TreeStats: tree.Stats{MACTests: 100, PC: 60, PP: 40},
		ForceT:    0.125, Branches: 6,
		IDs: []int32{4, 9},
		F:   []vec.V3{{X: 1, Y: 2, Z: 3}, {X: -1, Y: -2, Z: -3}},
	}
	outPot := rankOut{Rank: 2, IDs: []int32{}, P: []float64{-0.5}}
	wiregolden.Check(t, "testdata/wire.golden", 31, 50,
		particles, []wireParticle(nil), []wireParticle{},
		reqBin{Parts: []reqPart{{Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Self: 4, N: 2}, {Pos: vec.V3{X: 1}, Self: -1, N: 1}},
			Branches: []uint64{0x51, 0x52, 0x51}, More: true},
		reqBin{}, reqBin{Parts: []reqPart{}, Branches: []uint64{}},
		repBin{F: []vec.V3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}}},
		repBin{P: []float64{-0.75}},
		repBin{}, repBin{F: []vec.V3{}, P: []float64{}},
		sumForce, sumPot,
		[]BranchSummary{sumForce, sumPot}, []BranchSummary(nil), []BranchSummary{},
		[]fetchedCell{
			{Key: 0x51, Children: []fetchedChild{{Sum: sumPot}, {Sum: sumForce, IsLeaf: true, Particles: particles}, {IsLeaf: true, Particles: []wireParticle{}}}},
			{Key: 0x52},
			{Key: 0x53, Children: []fetchedChild{}},
		},
		[]fetchedCell(nil), []fetchedCell{},
		out, outPot, rankOut{},
		stepOutputs{Step: 7, Outs: []rankOut{out, outPot}}, stepOutputs{}, stepOutputs{Outs: []rankOut{}},
		let.Bounds{Has: true, Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}}, let.Bounds{},
		letShipMsg{Secs: []*let.Section{full, {BranchKey: 0x52}}}, letShipMsg{Secs: []*let.Section{}},
		letLoadMsg{Keys: []uint64{0x51, 0x51}, Nodes: []int32{0, 2}, Deltas: []int64{7, -2}}, letLoadMsg{},
		letLoadMsg{Keys: []uint64{}, Nodes: []int32{}, Deltas: []int64{}},
		shipLog{Start: 1.5, Flops: []float64{10, 20}, Ships: []int32{1, 0}, Owners: []uint16{3},
			Served: [][]float64{nil, {5, 6}, {}}},
		shipLog{}, shipLog{Flops: []float64{}, Ships: []int32{}, Owners: []uint16{}, Served: [][]float64{}},
	)
}
