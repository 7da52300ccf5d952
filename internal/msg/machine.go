// Package msg is the message-passing substrate the parallel Barnes–Hut
// formulations run on. The paper's code ran on a 256-processor nCUBE2 and
// a 256-processor CM5 through a native message layer; Go has neither
// machine nor MPI, so this package provides both:
//
//   - an SPMD runtime: a Machine of P logical processors, each a
//     goroutine, with blocking tagged point-to-point Send/Recv and the
//     collective operations the paper uses (barrier, broadcast, all-to-all
//     broadcast, all-to-all personalized, all-reduce), and
//
//   - a simulated machine clock per processor: computation is charged via
//     the paper's flop-count cost model and communication via the
//     classical ts + tw·m (+ per-hop) model with machine profiles for the
//     nCUBE2 and CM5. Receives advance the receiver's clock to the
//     message's arrival time, so per-phase maxima reproduce how the paper
//     reports parallel runtimes — while the goroutines also give real
//     parallelism on the host.
//
// A blocking receive of a known message is a function of the program. A
// poll is not, on goroutines: what has arrived "by now" is the host
// scheduler's. A section that polls therefore runs on the ordered machine
// (RunOrdered, ordered.go), which resumes the ranks as coroutines in
// simulated-time order; what such a section computes travels between live
// ranks off the clock (SendOffClock/RecvOffClock).
//
// All sends are logically buffered: a Send never blocks waiting for the
// receiver (mailboxes grow as needed), matching the paper's one
// outstanding-bin flow-control discipline being implemented *above* this
// layer, not by it.
//
// A machine may span OS processes (NewNetworkMachine, netmachine.go): it
// runs the ranks this process hosts and reaches the rest straight over a
// transport.Link, routing by its rank→process table and fencing each
// job's frames by epoch.
package msg

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
	"repro/internal/transport"
)

// Topology selects how hop counts are computed for the per-hop term of
// the communication model.
type Topology int

const (
	// Hypercube distance is the Hamming distance of the processor ids
	// (the nCUBE2 is a binary hypercube).
	Hypercube Topology = iota
	// FatTree charges a constant number of hops per message (the CM5's
	// data network is a 4-ary fat tree; distance varies between 2 and
	// 2·log4 p, approximated by the latter).
	FatTree
	// Uniform charges zero hops: a fully connected abstraction.
	Uniform
)

// CostProfile holds the machine constants of the simulated computer.
// Times are in seconds, rates in flops per second, words are 8-byte
// float64s. The shipped profiles use published ballpark figures for the
// paper's machines; all experiment conclusions depend only on the ratios.
type CostProfile struct {
	Name     string
	FlopRate float64 // per-processor useful flop rate
	TS       float64 // message startup latency (ts)
	TW       float64 // per-word transfer time (tw)
	TH       float64 // per-hop switching time (th)
	Topology Topology
	// StoreAndForward charges (TS + TW·m) per hop instead of cut-through
	// TS + TH·hops + TW·m.
	StoreAndForward bool
}

// NCube2 returns a cost profile for the 256-node nCUBE2: ~2 Mflop/s
// scalar nodes, high startup latency, hypercube wormhole routing.
func NCube2() CostProfile {
	return CostProfile{
		Name:     "nCUBE2",
		FlopRate: 2.0e6,
		TS:       160e-6,
		TW:       2.4e-6,
		TH:       4e-6,
		Topology: Hypercube,
	}
}

// CM5 returns a cost profile for the CM5: faster SPARC nodes, a fat-tree
// network with lower per-word cost.
func CM5() CostProfile {
	return CostProfile{
		Name:     "CM5",
		FlopRate: 8.0e6,
		TS:       86e-6,
		TW:       0.9e-6,
		TH:       2e-6,
		Topology: FatTree,
	}
}

// Ideal returns a profile with free communication; useful in tests that
// check pure algorithm behaviour.
func Ideal() CostProfile {
	return CostProfile{Name: "ideal", FlopRate: 1e9, Topology: Uniform}
}

// Hops returns the number of network hops between two processors.
func (c CostProfile) Hops(src, dst, p int) int {
	if src == dst {
		return 0
	}
	switch c.Topology {
	case Hypercube:
		return bits.OnesCount(uint(src ^ dst))
	case FatTree:
		// Up to the least common ancestor and back down; approximate with
		// the tree height for a 4-ary fat tree.
		h := 1
		for n := 4; n < p; n *= 4 {
			h++
		}
		return 2 * h
	default:
		return 0
	}
}

// TransferTime returns the modelled time for a message of `words`
// 8-byte words across `hops` hops.
func (c CostProfile) TransferTime(words, hops int) float64 {
	if c.StoreAndForward && hops > 1 {
		return float64(hops) * (c.TS + c.TW*float64(words))
	}
	return c.TS + c.TH*float64(hops) + c.TW*float64(words)
}

// message is an in-flight tagged message.
type message struct {
	src, tag int
	payload  any
	words    int
	arrival  float64 // simulated arrival time at the receiver
}

// mailbox is an unbounded tag-matched message queue. Messages are held
// in arrival order in a sliding window over the backing slice: head marks
// the first live entry, a message matched out of the middle becomes a
// tombstone skipped by later scans, and the window compacts when it
// drains or tombstones dominate. Removal is therefore O(scan) with no
// per-take memmove of the queue tail, while the first-match-in-arrival-
// order semantics are unchanged.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []mailEntry
	head    int // index of the first live entry
	dead    int // tombstones in [head, len(queue))
	stopped bool
}

type mailEntry struct {
	msg  message
	live bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, mailEntry{msg: m, live: true})
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// want is what a receive matches: a source (or AnySource) and one tag (or
// AnyTag) or a tag set.
type want struct {
	src, tag int
	tags     []int // non-nil: any of these tags; tag is ignored
}

func (w *want) matches(m *message) bool {
	if w.src != AnySource && m.src != w.src {
		return false
	}
	if w.tags == nil {
		return w.tag == AnyTag || m.tag == w.tag
	}
	for _, t := range w.tags {
		if m.tag == t {
			return true
		}
	}
	return false
}

// take waits for, removes and returns the first message (in physical
// arrival order) that w matches; false once the machine has stopped.
func (mb *mailbox) take(w *want) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i := mb.head; i < len(mb.queue); i++ {
			e := &mb.queue[i]
			if !e.live || !w.matches(&e.msg) {
				continue
			}
			m := e.msg
			e.live = false
			e.msg = message{} // release the payload reference
			mb.dead++
			mb.collect()
			return m, true
		}
		if mb.stopped {
			return message{}, false
		}
		mb.cond.Wait()
	}
}

// collect advances head past leading tombstones and compacts the window
// when it drains completely or tombstones outnumber live entries.
func (mb *mailbox) collect() {
	for mb.head < len(mb.queue) && !mb.queue[mb.head].live {
		mb.head++
		mb.dead--
	}
	if mb.head == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.head = 0
		return
	}
	if mb.dead >= 32 && 2*mb.dead > len(mb.queue)-mb.head {
		w := 0
		for i := mb.head; i < len(mb.queue); i++ {
			if mb.queue[i].live {
				mb.queue[w] = mb.queue[i]
				w++
			}
		}
		mb.queue = mb.queue[:w]
		mb.head, mb.dead = 0, 0
	}
}

func (mb *mailbox) stop() {
	mb.mu.Lock()
	mb.stopped = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Stats aggregates a processor's simulated activity.
type Stats struct {
	ComputeTime float64 // seconds spent in modelled computation
	CommTime    float64 // seconds the processor spent in send overhead and waiting
	Messages    int64   // messages sent
	Words       int64   // 8-byte words sent
	Flops       float64 // flops charged
}

// Machine is a simulated multicomputer. By default all P ranks run as
// goroutines in this process and payloads pass by reference; a machine
// built with NewNetworkMachine instead hosts a subset of the ranks and
// ships frames to the rest over a transport.Link (see netmachine.go).
type Machine struct {
	P       int
	Profile CostProfile
	boxes   []*mailbox

	// Where the ranks run: process owner[r] hosts rank r, this process is
	// me. An in-proc machine is one process, 0, that hosts every rank.
	owner      []int32
	me         int32
	localRanks []int // ranks hosted here, ascending
	leaders    []int // lowest rank of each process

	// The wire of a distributed machine; nil in-proc. Every frame sent is
	// stamped with epoch, and a frame delivered with another is dropped.
	link  transport.Link
	epoch uint32

	// Wire-semantics switches (see SetCopyOnSend, SetStrictWire).
	copyOnSend bool
	strictWire bool

	// tracer, when non-nil, records simulated-clock events (message
	// instants here, phase spans in parbh). Hooks only read the clock —
	// never advance it — so simulated metrics are bit-identical with
	// tracing on or off (see internal/obsv and its golden tests).
	tracer *obsv.Tracer

	failure atomic.Pointer[failureCell] // transport failure or interrupt, if any
}

// SetTracer attaches an observability tracer; nil detaches. Set it
// before Run — ranks read the field without synchronization.
func (m *Machine) SetTracer(tr *obsv.Tracer) { m.tracer = tr }

// Tracer returns the attached tracer (nil when tracing is off).
func (m *Machine) Tracer() *obsv.Tracer { return m.tracer }

// failureCell boxes the first failure recorded against the machine.
type failureCell struct{ err error }

// stopPanic carries a machine-stop error up a rank's stack: Recv and
// Send raise it when the machine has been poisoned (transport failure,
// interrupt), and RunErr converts the unwinding into a returned error.
// Any other panic value is a programming error and is re-raised.
type stopPanic struct{ err error }

// NewMachine creates a machine of p processors with the given profile.
func NewMachine(p int, profile CostProfile) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("msg: invalid processor count %d", p))
	}
	return newMachine(make([]int32, p), 0, 1, profile)
}

// newMachine creates a machine whose rank r runs in process owner[r] of
// procs, this process being me. Every process must host a rank.
func newMachine(owner []int32, me int32, procs int, profile CostProfile) *Machine {
	m := &Machine{P: len(owner), Profile: profile, owner: owner, me: me, leaders: make([]int, procs)}
	m.boxes = make([]*mailbox, m.P)
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
	}
	for i := range m.leaders {
		m.leaders[i] = -1
	}
	for r, o := range owner {
		if o < 0 || int(o) >= procs {
			panic(fmt.Sprintf("msg: rank %d owned by process %d of %d", r, o, procs))
		}
		if m.leaders[o] < 0 {
			m.leaders[o] = r
		}
		if o == me {
			m.localRanks = append(m.localRanks, r)
		}
	}
	if proc := slices.Index(m.leaders, -1); proc >= 0 {
		panic(fmt.Sprintf("msg: process %d hosts no ranks", proc))
	}
	return m
}

// Run executes body as an SPMD program: one goroutine per local
// processor (every processor, for the in-proc default). It returns
// per-processor stats indexed by rank; on a distributed machine only
// local ranks are filled and the caller merges across processes. A
// panic in any processor is re-raised on the caller after the others
// are released; a transport failure or Interrupt is raised as a panic
// too (use RunErr to receive it as an error instead).
func (m *Machine) Run(body func(*Proc)) []Stats {
	stats, err := m.RunErr(body)
	if err != nil {
		panic(err)
	}
	return stats
}

// RunErr executes body like Run but contains machine-stop failures: a
// transport fault or an Interrupt mid-run unwinds every local rank and
// comes back as the returned error — the process never panics over a
// dead interconnect. Genuine panics in the SPMD body (programming
// errors) are still re-raised. After an error return the machine is
// poisoned and must be discarded; after a nil return it is reset for
// the next Run.
func (m *Machine) RunErr(body func(*Proc)) ([]Stats, error) {
	stats := make([]Stats, m.P)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	var stopped error
	for _, i := range m.LocalRanks() {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if sp, ok := r.(stopPanic); ok {
						if stopped == nil {
							stopped = sp.err
						}
					} else if panicked == nil {
						panicked = fmt.Sprintf("proc %d: %v", id, r)
					}
					mu.Unlock()
					// Release peers blocked in Recv so the run can unwind.
					for _, b := range m.boxes {
						b.stop()
					}
				}
			}()
			p := &Proc{id: id, m: m}
			body(p)
			stats[id] = p.stats
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if c := m.failure.Load(); c != nil {
		return nil, fmt.Errorf("msg: machine stopped: %w", c.err)
	}
	if stopped != nil {
		return nil, stopped
	}
	// Reset stop flags so the machine can be reused.
	for _, b := range m.boxes {
		b.mu.Lock()
		b.stopped = false
		b.queue = b.queue[:0]
		b.head, b.dead = 0, 0
		b.mu.Unlock()
	}
	return stats, nil
}

// MaxTime returns the parallel completion time implied by per-processor
// stats: the maximum over processors of compute + communication time.
func MaxTime(stats []Stats) float64 {
	var t float64
	for _, s := range stats {
		if tt := s.ComputeTime + s.CommTime; tt > t {
			t = tt
		}
	}
	return t
}

// TotalWords sums the communication volume across processors.
func TotalWords(stats []Stats) int64 {
	var w int64
	for _, s := range stats {
		w += s.Words
	}
	return w
}

// TotalMessages sums the message count across processors.
func TotalMessages(stats []Stats) int64 {
	var n int64
	for _, s := range stats {
		n += s.Messages
	}
	return n
}

// Proc is one logical processor of a Machine. All methods must be called
// only from the goroutine running that processor's body.
type Proc struct {
	id      int
	m       *Machine
	now     float64 // simulated local clock
	stats   Stats
	collSeq int      // collective-operation sequence number (see collectives.go)
	ord     *ordered // non-nil on a virtual processor of RunOrdered
}

// ID returns the processor's rank in 0..P-1.
func (p *Proc) ID() int { return p.id }

// NumProcs returns the machine size.
func (p *Proc) NumProcs() int { return p.m.P }

// Now returns the processor's simulated clock in seconds.
func (p *Proc) Now() float64 { return p.now }

// Stats returns a snapshot of the processor's accounting.
func (p *Proc) Stats() Stats { return p.stats }

// Compute charges flops of modelled computation to the local clock.
func (p *Proc) Compute(flops float64) {
	if flops < 0 {
		panic("msg: negative flops")
	}
	p.stats.Flops += flops
	dt := flops / p.m.Profile.FlopRate
	p.now += dt
	p.stats.ComputeTime += dt
}

// Send transmits payload to processor dst with the given tag. words is
// the modelled message size in 8-byte words. The sender is charged the
// startup latency; the payload arrives at the modelled transfer time.
//
// Message accounting and the arrival timestamp are computed here, on
// the sender, under the machine's cost profile — never from transport
// behaviour — so the simulated clock and comm volumes are identical
// whether dst lives in this process or across a socket.
func (p *Proc) Send(dst, tag int, payload any, words int) {
	if dst < 0 || dst >= p.m.P {
		panic(fmt.Sprintf("msg: send to invalid processor %d", dst))
	}
	prof := p.m.Profile
	hops := prof.Hops(p.id, dst, p.m.P)
	// Sender-side software overhead.
	p.now += prof.TS
	p.stats.CommTime += prof.TS
	arrival := p.now + prof.TransferTime(words, hops)
	p.stats.Messages++
	p.stats.Words += int64(words)
	if dst == p.id {
		// Loopback: deliver without network cost beyond the startup.
		arrival = p.now
	}
	if tr := p.m.tracer; tr != nil && p.m.IsLocal(p.id) {
		// Collectives dominate message counts; recording them as instants
		// keeps the trace readable at p=256 (one marker per send, phase
		// spans carry the durations). An ordered section runs every rank of
		// a distributed machine; each process records its own ranks'.
		tr.SimInstant(p.id, "send", "msg", p.now,
			obsv.Int("dst", dst), obsv.Int("tag", tag), obsv.Int("words", words),
			obsv.F64("arrival_s", arrival))
	}
	msg := message{src: p.id, tag: tag, payload: payload, words: words, arrival: arrival}
	if p.ord != nil {
		p.ord.post(dst, msg)
		return
	}
	p.deliver(dst, msg)
}

// SendOffClock transmits payload to processor dst without touching the
// simulated machine: no clock, no Stats, no trace instant, and a stamp no
// receive ever waits for. It moves what a phase computes when the phase's
// timing is charged separately (see RunOrdered); RecvOffClock is its
// receiving end. Wire semantics (strict codecs, copy-on-send, frames to
// remote ranks) are those of Send.
func (p *Proc) SendOffClock(dst, tag int, payload any) {
	if dst < 0 || dst >= p.m.P {
		panic(fmt.Sprintf("msg: send to invalid processor %d", dst))
	}
	p.deliver(dst, message{src: p.id, tag: tag, payload: payload})
}

// deliver hands a stamped message to dst's mailbox, here or across the
// network.
func (p *Proc) deliver(dst int, msg message) {
	if p.m.strictWire && !transport.Registered(msg.payload) {
		panic(fmt.Sprintf("msg: payload type %s sent by proc %d (tag %d) has no transport codec",
			transport.TypeName(msg.payload), p.id, msg.tag))
	}
	if p.m.owner[dst] != p.m.me {
		f := &transport.Frame{
			Src:     int32(p.id),
			Dst:     int32(dst),
			Tag:     int32(msg.tag),
			Epoch:   p.m.epoch,
			Words:   int32(msg.words),
			Arrival: msg.arrival,
			Payload: msg.payload,
		}
		// The frame is fully encoded before SendData returns, so the
		// caller may reuse its buffers immediately.
		if err := p.m.link.SendData(int(p.m.owner[dst]), f); err != nil {
			err = fmt.Errorf("msg: proc %d send to %d (tag %d): %w", p.id, dst, msg.tag, err)
			p.m.fail(err)
			panic(stopPanic{err})
		}
		return
	}
	if p.m.copyOnSend {
		cp, err := transport.RoundTrip(msg.payload)
		if err != nil {
			panic(fmt.Sprintf("msg: proc %d send to %d (tag %d): copy-on-send: %v", p.id, dst, msg.tag, err))
		}
		msg.payload = cp
	}
	p.m.boxes[dst].put(msg)
}

// receive takes the message w matches — from the ordered section's inbox
// or the live mailbox — and advances the clock to its arrival stamp;
// waiting is accounted as communication time. A poll (block false) sees
// only stamps at or before the clock, so it never advances it; whether a
// message has physically arrived by then is host scheduling, so only the
// ordered section answers one.
func (p *Proc) receive(w want, block bool) (message, bool) {
	var msg message
	var ok bool
	if p.ord != nil {
		msg, ok = p.ord.receive(p, &w, block)
	} else if !block {
		panic("msg: polls run on the ordered machine")
	} else if msg, ok = p.m.boxes[p.id].take(&w); !ok {
		panic(stopPanic{p.m.stopErr()})
	}
	if ok && msg.arrival > p.now {
		p.stats.CommTime += msg.arrival - p.now
		p.now = msg.arrival
	}
	return msg, ok
}

// Recv blocks until a message matching (src, tag) arrives; wildcards
// AnySource/AnyTag match anything. It advances the simulated clock to the
// message arrival time (waiting is accounted as communication time) and
// returns the payload with the actual source.
func (p *Proc) Recv(src, tag int) (payload any, from int) {
	msg, _ := p.receive(want{src: src, tag: tag}, true)
	return msg.payload, msg.src
}

// RecvTags blocks until a message whose tag is one of tags arrives and
// returns it. Unlike Recv(AnySource, AnyTag) it will not consume messages
// belonging to other protocols (e.g. in-flight collectives from
// processors that have raced ahead).
func (p *Proc) RecvTags(tags ...int) (payload any, from, tag int) {
	msg, _ := p.receive(want{src: AnySource, tags: tags}, true)
	return msg.payload, msg.src, msg.tag
}

// TryRecvTags is the non-blocking variant of RecvTags: a poll at the
// processor's clock t. It sees exactly the messages stamped at or before
// t, so it never advances the clock; ok reports whether one matched. It
// panics outside RunOrdered.
func (p *Proc) TryRecvTags(tags ...int) (payload any, from, tag int, ok bool) {
	msg, ok := p.receive(want{src: AnySource, tags: tags}, false)
	return msg.payload, msg.src, msg.tag, ok
}

// RecvOffClock blocks for a message sent with SendOffClock under one of
// tags and returns it. Such a message is stamped zero, so taking it leaves
// the clock where it is.
func (p *Proc) RecvOffClock(tags ...int) (payload any, from, tag int) {
	return p.RecvTags(tags...)
}
