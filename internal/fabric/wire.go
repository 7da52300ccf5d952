// Package fabric turns one nbodyd into a fleet: a gateway/router that
// consistent-hashes submitted jobs across N shard daemons, with
// heartbeat-leased work assignment instead of static addressing,
// per-tenant admission control (token-bucket quotas + weighted fair
// queueing) ahead of each shard's bounded queue, and a result log that
// keeps each terminal result once under the canonical (scenario, seed,
// params) hash so identical requests from a million users cost one
// simulation.
//
// The control plane rides the transport wire layer: every message is a
// registered codec type inside a transport host frame, and every
// failure surfaces as a transport.TransportError whose FaultKind drives
// the gateway's re-routing policy — a dead shard's leased jobs are
// re-queued and re-routed exactly the way the cluster supervisor
// retries a faulted machine generation.
//
// The two-clock rule holds end to end: routing, leasing, and caching
// are host-clock machinery. A job's simulated metrics are bit-identical
// whether it runs directly on one shard, is routed through the gateway,
// is re-routed after a shard death, or is served from the cache —
// that identity is what makes the cache correct by construction.
package fabric

import (
	"repro/internal/recio"
	"repro/internal/transport"
)

// Fabric control-plane wire IDs live in the 61–80 block of the codec
// registry (see the block map in transport/codec.go). They are fixed,
// process-independent, and must never be reused for a different
// encoding. 66 was Done, a terminal report addressed by lease; it is
// retired, and every terminal report is a Parked.
const (
	idHello     uint16 = 61
	idWelcome   uint16 = 62
	idAssign    uint16 = 63
	idAccept    uint16 = 64
	idUpdate    uint16 = 65
	idPing      uint16 = 67
	idPong      uint16 = 68
	idCancel    uint16 = 69
	idKeyframe  uint16 = 70
	idReport    uint16 = 71
	idAdopt     uint16 = 72
	idParked    uint16 = 73
	idParkedAck uint16 = 74
	idRelease   uint16 = 75
)

// Hello is a shard's registration: its human name, the HTTP address its
// own API listens on (advertised to clients via the gateway's fleet
// view), and how many concurrent leases it will accept — the gateway
// never queues more work on a shard than the shard asked for, so the
// shard's own bounded admission queue cannot overflow from fabric
// traffic.
type Hello struct {
	Name     string
	HTTPAddr string
	Capacity int32
}

// Welcome completes a registration: the shard's fleet ID plus the lease
// discipline — the shard must make traffic (pings, updates) at least
// every HeartbeatMillis, and the gateway declares it dead after
// LeaseTTLMillis of silence.
type Welcome struct {
	ShardID         int32
	LeaseTTLMillis  int64
	HeartbeatMillis int64
}

// Assign leases one job to a shard. SpecJSON is the canonicalized
// service.JobSpec; the shard re-validates it on its own admission path.
// When the gateway holds a replicated keyframe for the job — it was
// leased before, and its previous shard streamed frame-store keyframes
// back before dying — Keyframe carries that frame-store keyframe record
// and ResumeStep its step, so the new shard resumes mid-run instead of
// replaying from zero.
type Assign struct {
	Lease      uint64
	JobID      string
	SpecJSON   []byte
	ResumeStep int64
	Keyframe   []byte
}

// Accept is the shard's admission verdict for an Assign: the local job
// ID it minted, or the admission error (queue full, invalid spec).
// ResumedStep reports the completed-step count the shard actually
// restored from an Assign keyframe (0 = started from scratch — a shard
// that cannot use the seed degrades rather than refuses).
type Accept struct {
	Lease       uint64
	JobID       string
	LocalID     string
	Err         string
	ResumedStep int64
}

// Update is a progress snapshot for a leased job; ProgressJSON is the
// shard's service.Progress. Updates double as lease renewals.
type Update struct {
	Lease        uint64
	JobID        string
	State        string
	ProgressJSON []byte
}

// Ping renews every lease its sender holds; Pong echoes the timestamp
// back so the shard can observe gateway RTT.
type Ping struct{ Nanos int64 }
type Pong struct{ Nanos int64 }

// Cancel asks a shard to cancel a leased job.
type Cancel struct {
	Lease uint64
	JobID string
}

// Keyframe replicates one frame-store keyframe of a leased job from its
// shard to the gateway. The gateway keeps only the latest per job; if
// the shard dies, the next Assign for the job carries it back out so
// the replacement shard resumes from Step instead of step zero. Data is
// a self-contained frames keyframe record (frames.DecodeKeyframe).
type Keyframe struct {
	Lease uint64
	JobID string
	Step  int64
	Data  []byte
}

// ReportedJob is one in-flight lease a reconnecting shard still runs:
// the gateway job ID it was assigned under, the shard-local job ID, and
// the last completed step (observability; the gateway's adoption
// decision keys on the IDs alone).
type ReportedJob struct {
	JobID   string
	LocalID string
	Step    int64
}

// ReportJobs is the first message a shard sends after Welcome: every
// gateway job it is still running from previous sessions. A freshly
// restarted gateway uses these reports during its reconciliation window
// to adopt still-running jobs instead of re-routing them; a gateway
// that never crashed uses them to re-bind leases across a connection
// blip. Shards with nothing in flight send an empty report.
type ReportJobs struct {
	Jobs []ReportedJob
}

// Adopt re-binds a reported job to the fresh session under a new lease:
// the shard keeps running the job exactly where it was — no restart, no
// re-route — and resumes streaming Updates and Keyframes under the new
// lease.
type Adopt struct {
	Lease   uint64
	JobID   string
	LocalID string
}

// Parked is a shard's one terminal report: every result leaves the
// shard's outbox as one, sent at completion when a session is live and
// by each new session's flush until acknowledged. It is addressed by
// gateway job ID, because a result may outlive the lease it ran under.
// ResultJSON is the shard's service.Result for state "done"; Err
// carries the failure otherwise. The gateway settles the job when the
// report is done, when the sending session holds the job's lease, or
// when no session holds it, and answers ParkedAck in every case.
type Parked struct {
	JobID      string
	State      string
	Err        string
	ResultJSON []byte
}

// ParkedAck confirms the gateway has handled a Parked report; the shard
// takes the result out of its outbox. Always sent, even for unknown or
// already-terminal jobs or a report that did not settle, so redelivery
// converges.
type ParkedAck struct {
	JobID string
}

// Release tells a shard to cancel a local job it reported but the
// gateway cannot adopt: the job is terminal, canceled, or already
// re-routed to another shard (whose copy wins). Addressed by local ID
// because no lease binds the two sides.
type Release struct {
	JobID   string
	LocalID string
}

func init() {
	transport.Register(idHello, func(c *recio.Coder, v *Hello) {
		c.Str(&v.Name)
		c.Str(&v.HTTPAddr)
		c.I32(&v.Capacity)
	})
	transport.Register(idWelcome, func(c *recio.Coder, v *Welcome) {
		c.I32(&v.ShardID)
		c.I64(&v.LeaseTTLMillis)
		c.I64(&v.HeartbeatMillis)
	})
	transport.Register(idAssign, func(c *recio.Coder, v *Assign) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
		c.Bytes(&v.SpecJSON)
		c.I64(&v.ResumeStep)
		c.Bytes(&v.Keyframe)
	})
	transport.Register(idAccept, func(c *recio.Coder, v *Accept) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
		c.Str(&v.LocalID)
		c.Str(&v.Err)
		c.I64(&v.ResumedStep)
	})
	transport.Register(idUpdate, func(c *recio.Coder, v *Update) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
		c.Str(&v.State)
		c.Bytes(&v.ProgressJSON)
	})
	transport.Register(idPing, func(c *recio.Coder, v *Ping) { c.I64(&v.Nanos) })
	transport.Register(idPong, func(c *recio.Coder, v *Pong) { c.I64(&v.Nanos) })
	transport.Register(idCancel, func(c *recio.Coder, v *Cancel) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
	})
	transport.Register(idKeyframe, func(c *recio.Coder, v *Keyframe) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
		c.I64(&v.Step)
		c.Bytes(&v.Data)
	})
	transport.Register(idReport, func(c *recio.Coder, v *ReportJobs) {
		// The one list on the wire whose count is a plain u32 with no nil
		// marker: an empty report and a nil one are the same four bytes,
		// and both decode to nil.
		n := uint32(len(v.Jobs))
		c.U32(&n)
		if c.Decoding {
			// Each entry is at least 2 length-prefixed strings + an i64;
			// bound the allocation before trusting the count.
			if int(n) > c.R.Remaining()/16 {
				c.R.Fail("fabric: report count %d exceeds frame", n)
				return
			}
			if n > 0 {
				v.Jobs = make([]ReportedJob, n)
			}
		}
		for i := range v.Jobs {
			j := &v.Jobs[i]
			c.Str(&j.JobID)
			c.Str(&j.LocalID)
			c.I64(&j.Step)
		}
	})
	transport.Register(idAdopt, func(c *recio.Coder, v *Adopt) {
		c.U64(&v.Lease)
		c.Str(&v.JobID)
		c.Str(&v.LocalID)
	})
	transport.Register(idParked, func(c *recio.Coder, v *Parked) {
		c.Str(&v.JobID)
		c.Str(&v.State)
		c.Str(&v.Err)
		c.Bytes(&v.ResultJSON)
	})
	transport.Register(idParkedAck, func(c *recio.Coder, v *ParkedAck) { c.Str(&v.JobID) })
	transport.Register(idRelease, func(c *recio.Coder, v *Release) {
		c.Str(&v.JobID)
		c.Str(&v.LocalID)
	})
}

// encodeControl frames one fabric control message: a transport host
// frame whose body is the registered payload. Fabric connections carry
// only these frames (plus Bye), so the host-frame kind unambiguously
// means "fabric control" here.
func encodeControl(payload any) ([]byte, error) {
	return transport.AppendControl(nil, transport.KindHost, payload)
}
