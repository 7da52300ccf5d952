package cluster

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/vec"
	"repro/internal/wiregolden"
)

// TestWireGolden pins the encoded bytes of the cluster block (wire IDs
// 51–60); see package wiregolden.
func TestWireGolden(t *testing.T) {
	job := Job{
		Name:    "golden",
		Ranks:   8,
		Steps:   3,
		Profile: msg.CostProfile{Name: "cm5", FlopRate: 5e6, TS: 8.6e-5, TW: 1.2e-6, TH: 1e-7, Topology: msg.FatTree, StoreAndForward: true},
		Config: parbh.Config{Scheme: parbh.DPDA, Mode: parbh.PotentialMode, Alpha: 0.67, Degree: 4, Eps: 0.01,
			LeafCap: 8, GridLog2: 2, BinSize: 100, Shipping: parbh.LETShipping, BranchLookup: parbh.Lookup(1),
			Ordering: parbh.Ordering(1), TreeBuild: parbh.NonReplicatedBuild},
		Domain: vec.Box{Min: vec.V3{X: -1, Y: -2, Z: -3}, Max: vec.V3{X: 1, Y: 2, Z: 3}},
		Parts: []dist.Particle{
			{ID: 0, Mass: 0.5, Pos: vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, Vel: vec.V3{X: -0.1, Y: -0.2, Z: -0.3}},
			{ID: 1, Mass: 0.25, Pos: vec.V3{X: 0.4, Y: 0.5, Z: 0.6}},
		},
	}
	wiregolden.Check(t, "testdata/wire.golden", 51, 60,
		jobStart{Epoch: 9, Job: job},
		jobStart{},
		jobStart{Job: Job{Parts: []dist.Particle{}}},
		stepCmd{Epoch: 9, Step: 2},
		endJob{Epoch: 9},
		shutdown{},
		jobReady{Epoch: 9, Err: "engine: bad config"},
		jobReady{Epoch: 10},
	)
}
