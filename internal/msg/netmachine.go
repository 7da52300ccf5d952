package msg

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/transport"
)

// Network is the seam between a Machine and a real interconnect: a rank
// ownership map plus a frame pipe. The in-proc Machine has none (every
// rank is local and payloads pass by reference); a network Machine
// routes sends to non-local ranks through SendFrame and receives
// deliveries through the handler it installs with SetHandler.
//
// Implementations sit above transport.Link (see internal/cluster):
// they translate rank IDs to process IDs, stamp job epochs on outgoing
// frames, and filter stale ones on the way in. The simulated clock
// never touches this layer — arrival timestamps are computed on the
// sender under the machine's CostProfile and travel inside the frame,
// which is what keeps simulated time bit-identical across transports.
type Network interface {
	// Ranks returns the total number of ranks in the machine.
	Ranks() int
	// LocalRanks returns the ranks hosted by this process, ascending.
	LocalRanks() []int
	// Leaders returns the lowest rank hosted by each process, indexed by
	// process.
	Leaders() []int
	// ProcID returns this process's index (0 = coordinator).
	ProcID() int
	// NumProcs returns the number of processes the ranks span.
	NumProcs() int
	// SendFrame ships a frame to the process owning f.Dst. The payload
	// is encoded before SendFrame returns (no aliasing with sender
	// memory).
	SendFrame(f *transport.Frame) error
	// SetHandler installs the delivery callback for incoming frames.
	SetHandler(fn func(*transport.Frame))
	// SetErrorHandler installs the callback for fatal transport
	// errors (peer lost, heartbeat timeout, corrupt frame).
	SetErrorHandler(fn func(error))
	// HostSend ships an untimed control message to another process.
	// Host traffic never touches the simulated clock: it carries job
	// setup and result gathers, not machine messages.
	HostSend(dst int, payload any) error
	// HostRecv blocks for the next control message from any process.
	HostRecv() (src int, payload any, err error)
}

// NewNetworkMachine creates a Machine whose ranks are spread across OS
// processes connected by net. Run executes the SPMD body only for this
// process's local ranks; sends to remote ranks are encoded through the
// codec registry and shipped as frames. Remote payload types must be
// registered with internal/transport or Send panics.
//
// If the transport fails mid-run, every local rank blocked in Recv or
// Send unwinds with the transport error: RunErr returns it, Run panics
// with it — a clear failure, not a hang, and never a dead process when
// the caller uses RunErr.
func NewNetworkMachine(net Network, profile CostProfile) *Machine {
	p := net.Ranks()
	if p <= 0 {
		panic(fmt.Sprintf("msg: invalid rank count %d", p))
	}
	local := net.LocalRanks()
	if len(local) == 0 {
		panic("msg: network machine with no local ranks")
	}
	m := &Machine{P: p, Profile: profile, net: net}
	m.boxes = make([]*mailbox, p)
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
	}
	m.localRanks = append([]int(nil), local...)
	sort.Ints(m.localRanks)
	m.isLocal = make([]bool, p)
	for _, r := range m.localRanks {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("msg: local rank %d out of range 0..%d", r, p-1))
		}
		m.isLocal[r] = true
	}
	net.SetHandler(m.deliverFrame)
	net.SetErrorHandler(m.fail)
	return m
}

// deliverFrame is the Network handler: queue an incoming frame into the
// destination rank's mailbox exactly as a local put would.
func (m *Machine) deliverFrame(f *transport.Frame) {
	dst := int(f.Dst)
	if dst < 0 || dst >= m.P || !m.isLocal[dst] {
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
func (m *Machine) Distributed() bool { return m.net != nil }

// ProcID returns this process's index in the distributed machine, or 0
// for the in-proc default.
func (m *Machine) ProcID() int {
	if m.net == nil {
		return 0
	}
	return m.net.ProcID()
}

// NumHostProcs returns the number of OS processes the machine's ranks
// span (1 for the in-proc default).
func (m *Machine) NumHostProcs() int {
	if m.net == nil {
		return 1
	}
	return m.net.NumProcs()
}

// HostSend ships an untimed control message to another process of a
// distributed machine. It is not valid on an in-proc machine.
func (m *Machine) HostSend(dst int, payload any) error {
	if m.net == nil {
		return fmt.Errorf("msg: HostSend on a non-distributed machine")
	}
	return m.net.HostSend(dst, payload)
}

// HostRecv blocks for the next control message from any process.
func (m *Machine) HostRecv() (int, any, error) {
	if m.net == nil {
		return -1, nil, fmt.Errorf("msg: HostRecv on a non-distributed machine")
	}
	return m.net.HostRecv()
}

// LocalRanks returns the ranks executed by this process, ascending.
// For an in-proc machine that is all of 0..P-1.
func (m *Machine) LocalRanks() []int {
	if m.localRanks != nil {
		return m.localRanks
	}
	all := make([]int, m.P)
	for i := range all {
		all[i] = i
	}
	return all
}

// IsLocal reports whether rank runs in this process.
func (m *Machine) IsLocal(rank int) bool {
	if m.isLocal == nil {
		return rank >= 0 && rank < m.P
	}
	return rank >= 0 && rank < m.P && m.isLocal[rank]
}

// Leader returns the lowest rank local to this process: the rank that
// performs once-per-process duties (recording results, owning maps).
func (m *Machine) Leader() int {
	if m.localRanks != nil {
		return m.localRanks[0]
	}
	return 0
}

// Leaders returns every process's Leader, indexed by process: where to
// send what each process must hold a copy of.
func (m *Machine) Leaders() []int {
	if m.net == nil {
		return []int{0}
	}
	return m.net.Leaders()
}

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
