package transport

import (
	"encoding/binary"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPlan is a seeded, deterministic chaos schedule for one endpoint's
// conns. All probabilities are per drawn frame (see FaultConn); the zero
// value injects nothing. Fault decisions come from a private rand.Rand
// per conn, seeded with Seed and advanced once per drawn frame, so two
// runs with the same plan and the same frame sequence inject the same
// faults — the property the chaos CI matrix and the golden-recovery
// tests rely on.
type FaultPlan struct {
	// Seed initializes the fault RNG (0 behaves like 1).
	Seed int64
	// DropProb silently swallows an outgoing frame.
	DropProb float64
	// DupProb writes an outgoing frame twice. A node drops the second
	// copy of a data frame by its Seq stamp; fabric control handling is
	// idempotent.
	DupProb float64
	// DelayProb stalls an outgoing frame by Delay before it is written.
	// The stall is synchronous, so each sender's frames keep their order
	// — which the machine's mailbox matching depends on.
	DelayProb float64
	// Delay is the injected stall (default 1ms when a delay fault or
	// slow peer is configured).
	Delay time.Duration
	// CorruptProb damages an outgoing frame beyond repair: the receiver
	// cannot decode it and fails with a FaultCorrupt error.
	CorruptProb float64
	// SlowPeers lists procs whose conns always delay their frames by
	// Delay.
	SlowPeers []int
	// PartitionAfter severs a conn once this many drawn frames have been
	// written on it; 0 means never. Every later write fails with a
	// FaultPartition error, and so does the read that the severed conn
	// unblocks, which is how a node learns to fail its HostRecv callers.
	PartitionAfter int
}

// FaultConn injects a FaultPlan into the frames written on one conn: a
// fabric control conn (NewFaultConn) or a conn of a NewMesh node. Each
// Write is one whole frame. A frame of the kind the conn draws for rolls
// the plan's dice: it may be dropped, delayed (stalling only its
// sender), written twice, or corrupted (one byte appended and counted by
// the length prefix, so the stream keeps framing but every decoder
// refuses the body and the receiver fails with FaultCorrupt);
// PartitionAfter drawn frames sever the conn, and every later write is
// refused. Which frames draw depends on the conn:
//   - on a machine conn, data frames draw; host frames, the handshake
//     (Hello, Welcome, Ident) and liveness (ping, pong, Bye) pass;
//   - on a fabric conn, every control message draws, the Hello/Welcome
//     handshake included, since all of them are host frames; liveness
//     (ping, pong, Bye) passes.
//
// Liveness never draws, so the schedule depends only on the seed and the
// drawn frames, never on wall-clock timing or the heartbeat rate. On a
// machine conn a data frame also carries the conn's next Seq, which the
// receiving node's dedup window reads. Faults are counted into the
// conn's Metrics.
type FaultConn struct {
	net.Conn
	plan  FaultPlan
	m     *Metrics
	peer  int   // proc at the far end; -1 off a machine
	draws uint8 // the frame kind the dice roll for
	slow  bool  // peer is listed in plan.SlowPeers

	mu   sync.Mutex // the dice
	rng  *rand.Rand
	sent int
	wmu  sync.Mutex // a stamped frame and its duplicate, in Seq order
	seq  uint32
	cut  atomic.Bool
}

// Session is the plan for the k-th conn an endpoint opens with p, counted
// from 0: session 0 keeps Seed, and each later one is seeded from Seed and
// k, so a redial does not replay the schedule that ended the conn before
// it — with DropProb 0.3 and Seed 2, every session would otherwise drop
// its Hello.
func (p FaultPlan) Session(k int) FaultPlan {
	if k != 0 {
		z := uint64(p.Seed) + uint64(k)*0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		p.Seed = int64(z ^ z>>31)
	}
	return p
}

// NewFaultConn wraps a fabric control conn with the plan: host frames
// draw faults.
func NewFaultConn(conn net.Conn, plan FaultPlan) *FaultConn {
	return newFaultConn(conn, plan, new(Metrics), -1, KindHost)
}

// newFaultConn wraps conn to peer, rolling the plan's dice for frames of
// kind draws and counting faults into m.
func newFaultConn(conn net.Conn, plan FaultPlan, m *Metrics, peer int, draws uint8) *FaultConn {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	if plan.Delay <= 0 {
		plan.Delay = time.Millisecond
	}
	return &FaultConn{Conn: conn, plan: plan, m: m, peer: peer, draws: draws,
		slow: slices.Contains(plan.SlowPeers, peer), rng: rand.New(rand.NewSource(seed))}
}

func (fc *FaultConn) partitionErr() error {
	return faultErr(FaultPartition, fc.peer, "injected partition after %d frames", fc.plan.PartitionAfter)
}

// Write applies the plan to one outgoing frame.
func (fc *FaultConn) Write(frame []byte) (int, error) {
	if fc.cut.Load() {
		return 0, fc.partitionErr()
	}
	if len(frame) <= frameHeaderLen || frame[4] != fc.draws {
		return fc.Conn.Write(frame)
	}
	fc.mu.Lock()
	fc.sent++
	partitioned := fc.plan.PartitionAfter > 0 && fc.sent > fc.plan.PartitionAfter
	var drop, dup, corrupt, delay bool
	if !partitioned {
		drop = fc.plan.DropProb > 0 && fc.rng.Float64() < fc.plan.DropProb
		delay = fc.plan.DelayProb > 0 && fc.rng.Float64() < fc.plan.DelayProb
		dup = fc.plan.DupProb > 0 && fc.rng.Float64() < fc.plan.DupProb
		corrupt = fc.plan.CorruptProb > 0 && fc.rng.Float64() < fc.plan.CorruptProb
	}
	fc.mu.Unlock()

	if partitioned {
		if fc.cut.CompareAndSwap(false, true) {
			fc.m.FaultsPartitions.Add(1)
			fc.Conn.Close() // sever both directions, like a real partition
		}
		return 0, fc.partitionErr()
	}
	if drop {
		fc.m.FaultsDropped.Add(1)
		return len(frame), nil
	}
	if delay || fc.slow {
		fc.m.FaultsDelayed.Add(1)
		time.Sleep(fc.plan.Delay)
	}
	buf := append(make([]byte, 0, len(frame)+1), frame...)
	if corrupt {
		fc.m.FaultsCorrupted.Add(1)
		buf = append(buf, 0)
		binary.LittleEndian.PutUint32(buf, uint32(len(buf)-frameHeaderLen))
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if fc.draws == KindData {
		// Seq follows Epoch in the data frame header.
		fc.seq++
		binary.LittleEndian.PutUint32(buf[frameHeaderLen+4:], fc.seq)
	}
	if _, err := fc.Conn.Write(buf); err != nil {
		return 0, err
	}
	if dup {
		fc.m.FaultsDuplicated.Add(1)
		fc.Conn.Write(buf)
	}
	return len(frame), nil
}

// Read passes through; once the plan has severed the conn, the read it
// unblocks reports the partition rather than the closed conn beneath.
func (fc *FaultConn) Read(b []byte) (int, error) {
	n, err := fc.Conn.Read(b)
	if err != nil && fc.cut.Load() {
		err = fc.partitionErr()
	}
	return n, err
}
