package fabric

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// Every fabric control message must survive a codec round trip exactly:
// both ends resolve payloads by the fixed wire IDs alone.
func TestWireRoundTrips(t *testing.T) {
	msgs := []any{
		Hello{Name: "shard-1", HTTPAddr: "127.0.0.1:8081", Capacity: 4},
		Welcome{ShardID: 7, LeaseTTLMillis: 10_000, HeartbeatMillis: 2_500},
		Assign{Lease: 42, JobID: "gabc123", SpecJSON: []byte(`{"n":96}`)},
		Accept{Lease: 42, JobID: "gabc123", LocalID: "jdeadbeef"},
		Accept{Lease: 43, JobID: "gdef456", Err: "queue full"},
		Update{Lease: 42, JobID: "gabc123", State: "running", ProgressJSON: []byte(`{"step":2}`)},
		Parked{JobID: "gabc123", State: "done", ResultJSON: []byte(`{"steps":3}`)},
		Parked{JobID: "gfff", State: "failed", Err: "boom"},
		ParkedAck{JobID: "gabc123"},
		Ping{Nanos: 123456789},
		Pong{Nanos: 123456789},
		Cancel{Lease: 42, JobID: "gabc123"},
	}
	for _, in := range msgs {
		b, err := transport.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		out, err := transport.Unmarshal(b)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// Control frames carry messages over the same KindHost framing the SPMD
// transport uses; a frame written by encodeControl must read back with
// ReadRaw.
func TestWireControlFraming(t *testing.T) {
	in := Assign{Lease: 9, JobID: "g123", SpecJSON: []byte(`{"steps":1}`)}
	frame, err := encodeControl(in)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := transport.ReadRaw(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if kind != transport.KindHost {
		t.Fatalf("frame kind = %d, want KindHost", kind)
	}
	out, err := transport.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out.(Assign)) {
		t.Fatalf("framing round trip: in %+v, out %+v", in, out)
	}
}

// The fabric block's IDs must stay inside 61–80 and registered.
func TestWireIDsRegistered(t *testing.T) {
	for _, v := range []any{
		Hello{}, Welcome{}, Assign{}, Accept{}, Update{}, Ping{}, Pong{}, Cancel{},
		Keyframe{}, ReportJobs{}, Adopt{}, Parked{}, ParkedAck{}, Release{},
	} {
		if !transport.Registered(v) {
			t.Fatalf("%T not registered with the transport codec", v)
		}
	}
}
