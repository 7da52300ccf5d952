package fabric

import (
	"testing"

	"repro/internal/wiregolden"
)

// TestWireGolden pins the encoded bytes of the fabric block (wire IDs
// 61–80); see package wiregolden.
func TestWireGolden(t *testing.T) {
	wiregolden.Check(t, "testdata/wire.golden", 61, 80,
		Hello{Name: "shard-1", HTTPAddr: "127.0.0.1:8081", Capacity: 4},
		Welcome{ShardID: 7, LeaseTTLMillis: 10_000, HeartbeatMillis: 2_500},
		Assign{Lease: 42, JobID: "gabc123", SpecJSON: []byte(`{"n":96}`), ResumeStep: 5, Keyframe: []byte{9, 8, 7}},
		Assign{Lease: 43, JobID: "gdef456", SpecJSON: []byte{}},
		Accept{Lease: 42, JobID: "gabc123", LocalID: "jdeadbeef", ResumedStep: 5},
		Accept{Lease: 43, JobID: "gdef456", Err: "queue full"},
		Update{Lease: 42, JobID: "gabc123", State: "running", ProgressJSON: []byte(`{"step":2}`)},
		Update{},
		Cancel{Lease: 42, JobID: "gabc123"},
		Keyframe{Lease: 42, JobID: "gabc123", Step: 16, Data: []byte("NBF-record")},
		Keyframe{},
		ReportJobs{Jobs: []ReportedJob{{JobID: "g1", LocalID: "j1", Step: 12}, {JobID: "g2", LocalID: "j2"}}},
		ReportJobs{},
		Adopt{Lease: 50, JobID: "g1", LocalID: "j1"},
		Parked{JobID: "g1", State: "done", ResultJSON: []byte(`{"steps":3}`)},
		Parked{JobID: "g2", State: "failed", Err: "boom"},
		ParkedAck{JobID: "g1"},
		Release{JobID: "g1", LocalID: "j1"},
	)
}
