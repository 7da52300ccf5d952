package msg

import (
	"errors"
	"fmt"

	"repro/internal/transport"
)

// NewNetworkMachine creates a Machine whose len(owner) ranks are spread
// across the OS processes joined by link: owner[r] is the process that
// hosts rank r, and each process hosts at least one. Run executes the
// SPMD body only for this process's ranks; a send to a rank of another
// process is encoded through the codec registry and shipped as a data
// frame stamped with epoch. Remote payload types must be registered with
// internal/transport or Send panics.
//
// The machine installs its own data handler on link: a frame of another
// epoch (a straggler from an earlier job on the same conns) is dropped
// before it reaches a mailbox, and a frame for a rank this process does
// not host fails the machine. The simulated clock never touches the
// link: arrival stamps are computed on the sender under the machine's
// CostProfile and travel inside the frame, which is what keeps
// simulated time bit-identical across transports.
//
// If the link fails mid-run, every local rank blocked in Recv or Send
// unwinds with the transport error: RunErr returns it, Run panics with
// it — a clear failure, not a hang, and never a dead process when the
// caller uses RunErr.
func NewNetworkMachine(link transport.Link, owner []int32, epoch uint32, profile CostProfile) *Machine {
	m := newMachine(owner, int32(link.ProcID()), link.NumProcs(), profile)
	m.link, m.epoch = link, epoch
	link.SetDataHandler(m.deliverFrame)
	link.SetErrorHandler(m.fail)
	return m
}

// deliverFrame is the link's data handler: drop a frame of another epoch,
// and queue the rest into the destination rank's mailbox exactly as a
// local put would.
func (m *Machine) deliverFrame(f *transport.Frame) {
	if f.Epoch != m.epoch {
		return // stale job incarnation
	}
	dst := int(f.Dst)
	if !m.IsLocal(dst) {
		m.fail(fmt.Errorf("msg: frame for rank %d misrouted to this process", dst))
		return
	}
	m.boxes[dst].put(message{
		src:     int(f.Src),
		tag:     int(f.Tag),
		payload: f.Payload,
		words:   int(f.Words),
		arrival: f.Arrival,
	})
}

// fail poisons the machine: every local rank blocked in Recv unblocks
// and unwinds with the failure instead of hanging on a dead
// interconnect. The first failure wins; later ones are dropped.
func (m *Machine) fail(err error) {
	m.failure.CompareAndSwap(nil, &failureCell{err: err})
	for _, b := range m.boxes {
		if b != nil {
			b.stop()
		}
	}
}

// Interrupt poisons the machine from outside the SPMD body: every
// local rank unwinds with err and RunErr returns it. Watchdogs use
// this to cancel a machine whose peers have gone silent — tie it to a
// context by calling Interrupt(ctx.Err()) when the context is done.
func (m *Machine) Interrupt(err error) {
	if err == nil {
		err = errors.New("msg: machine interrupted")
	}
	m.fail(err)
}

// Fail poisons the machine with err from inside the SPMD body and unwinds
// the calling rank; every other local rank follows, and RunErr returns err.
func (p *Proc) Fail(err error) {
	p.m.fail(err)
	panic(stopPanic{p.m.stopErr()})
}

// stopErr renders the failure behind a Recv interrupted by stop.
func (m *Machine) stopErr() error {
	if c := m.failure.Load(); c != nil {
		return fmt.Errorf("msg: machine stopped: %w", c.err)
	}
	return errors.New("msg: machine stopped while receiving (peer panicked)")
}

// Distributed reports whether this machine's ranks span processes.
func (m *Machine) Distributed() bool { return m.link != nil }

// ProcID returns this process's index in the distributed machine, or 0
// for the in-proc default.
func (m *Machine) ProcID() int { return int(m.me) }

// NumHostProcs returns the number of OS processes the machine's ranks
// span (1 for the in-proc default).
func (m *Machine) NumHostProcs() int { return len(m.leaders) }

// HostSend ships an untimed control message to another process of a
// distributed machine. It is not valid on an in-proc machine.
func (m *Machine) HostSend(dst int, payload any) error {
	if m.link == nil {
		return fmt.Errorf("msg: HostSend on a non-distributed machine")
	}
	return m.link.HostSend(dst, payload)
}

// HostRecv blocks for the next control message from any process.
func (m *Machine) HostRecv() (int, any, error) {
	if m.link == nil {
		return -1, nil, fmt.Errorf("msg: HostRecv on a non-distributed machine")
	}
	return m.link.HostRecv()
}

// LocalRanks returns the ranks executed by this process, ascending.
// For an in-proc machine that is all of 0..P-1. The caller must not
// modify the slice.
func (m *Machine) LocalRanks() []int { return m.localRanks }

// IsLocal reports whether rank runs in this process.
func (m *Machine) IsLocal(rank int) bool {
	return rank >= 0 && rank < m.P && m.owner[rank] == m.me
}

// Leader returns the lowest rank local to this process: the rank that
// performs once-per-process duties (recording results, owning maps).
func (m *Machine) Leader() int { return m.localRanks[0] }

// Leaders returns every process's Leader, indexed by process: where to
// send what each process must hold a copy of. The caller must not
// modify the slice.
func (m *Machine) Leaders() []int { return m.leaders }

// SetCopyOnSend makes every local Send deep-copy its payload through
// the codec registry, exactly as a remote send would. Off by default
// for in-proc machines (reference passing is the zero-cost path); the
// wire-semantics tests switch it on to prove the formulations don't
// depend on payload aliasing.
func (m *Machine) SetCopyOnSend(on bool) { m.copyOnSend = on }

// SetStrictWire makes Send panic on any payload type without a codec,
// even for rank-local delivery. The codec exhaustiveness test runs the
// full formulations on a strict machine to prove every payload that an
// SPSA/SPDA/DPDA step can emit is registered.
func (m *Machine) SetStrictWire(on bool) { m.strictWire = on }
