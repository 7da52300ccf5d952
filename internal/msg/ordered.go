package msg

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
)

// The ordered machine. A live Machine runs its ranks as goroutines, so the
// order in which two ranks reach a receive is the host scheduler's. That
// is harmless for a blocking receive of a specific message — its clock
// effect is the message's stamp — but a *poll* asks "has anything arrived
// by now?", and on goroutines the answer depends on which rank the host
// ran first. RunOrdered answers it on the simulated clock alone: the P
// ranks of a section run as coroutines on the calling goroutine, one at a
// time, and a rank that reaches a receive parks until it holds the
// smallest key of all parked ranks —
//
//   - a poll's key is the poller's clock t; it is then handed, of the
//     messages it matches that are stamped ≤ t, the first in
//     (arrival, source, send sequence) order, or nothing, and its clock
//     does not move;
//   - a blocking receive's key is max(clock, earliest matching stamp), or
//     +Inf while nothing matches; it is handed that earliest message and
//     its clock advances to the stamp;
//   - equal keys run in rank order.
//
// Every other rank is parked at a key no smaller, clocks only advance, and
// a send is stamped after its sender's clock, so when a rank runs nobody
// can still send it a message stamped before its key (at an equal stamp
// the rank order above decides, identically every time). The section is
// therefore a function of its input: the same clocks, Stats and trace
// instants whatever GOMAXPROCS, transport or host load — what a
// conservative discrete-event simulation computes, with the ranks' own
// program text as the event handlers. (A rank that spins on empty polls
// without computing or blocking in between holds the smallest key for ever:
// time does not pass while the only runnable rank does nothing.)

// Replayed is what one virtual processor of an ordered section ends with:
// its clock, and the Stats it accumulated from zero.
type Replayed struct {
	Now   float64
	Stats Stats
}

// Adopt moves a live processor to where its virtual twin ended: the clock
// is set, the section's Stats are added.
func (p *Proc) Adopt(r Replayed) {
	if r.Now < p.now {
		panic(fmt.Sprintf("msg: proc %d adopting clock %v behind its own %v", p.id, r.Now, p.now))
	}
	p.now = r.Now
	p.stats.ComputeTime += r.Stats.ComputeTime
	p.stats.CommTime += r.Stats.CommTime
	p.stats.Messages += r.Stats.Messages
	p.stats.Words += r.Stats.Words
	p.stats.Flops += r.Stats.Flops
}

// ordered is the scheduler of one RunOrdered section.
type ordered struct {
	m     *Machine
	ranks []vrank
	keys  []float64 // per rank: the key it is parked at; +Inf once it returned
	seq   uint64    // sends so far: the last tie-breaker of delivery order
	// next is the rank the last rank to park found first among the others,
	// which is first of all: it parked because its own key was no smaller.
	// -1 when the last resume did not end in a park.
	next int
}

// vrank is one virtual processor: its Proc, its inbox sorted by
// (arrival, src, seq), what it is parked on, and its coroutine.
type vrank struct {
	proc  Proc
	inbox []stamped

	parked want    // what the rank's pending receive matches (tags copied)
	until  float64 // a poll's clock: later stamps are not yet visible to it
	block  bool
	tags   []int

	yield    func(struct{}) bool
	resume   func() (struct{}, bool)
	stop     func()
	returned bool
}

type stamped struct {
	message
	seq uint64
}

func (a *stamped) before(b *stamped) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// errUnwound stops a parked virtual rank whose section is being torn down.
var errUnwound = errors.New("msg: ordered section unwound")

// RunOrdered executes body as an SPMD section on P virtual processors in
// simulated-time order (see the comment above) and returns where each
// ended. Rank r starts at clock start[r] with zero Stats. Every process of
// a distributed machine that runs the same section from the same inputs
// computes the same result; nothing crosses the network, and payloads pass
// by reference. Trace instants are recorded for this process's ranks only.
//
// A section that cannot finish — every unfinished rank blocked on a receive
// nothing matches — returns an error naming the ranks and what they wait
// for. A machine stopped by a transport failure or Interrupt returns that
// error. A panic in one rank unwinds the others and is re-raised here.
func (m *Machine) RunOrdered(start []float64, body func(*Proc)) ([]Replayed, error) {
	if len(start) != m.P {
		panic(fmt.Sprintf("msg: RunOrdered needs %d start clocks, got %d", m.P, len(start)))
	}
	o := &ordered{m: m, ranks: make([]vrank, m.P), keys: make([]float64, m.P), next: -1}
	var panicked any
	for i := range o.ranks {
		v := &o.ranks[i]
		v.proc = Proc{id: i, m: m, now: start[i], ord: o}
		o.keys[i] = start[i]
		v.resume, v.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				v.returned = true
				o.keys[i] = math.Inf(1)
				if r := recover(); r != nil {
					if sp, ok := r.(stopPanic); !ok || sp.err != errUnwound {
						panicked = fmt.Sprintf("proc %d: %v", i, r)
					}
				}
			}()
			v.yield = yield
			body(&v.proc)
		})
	}
	// Unwind whatever is still parked, on every way out: stop makes the
	// rank's pending yield return false, which its receive turns into
	// errUnwound.
	defer func() {
		for i := range o.ranks {
			o.ranks[i].stop()
		}
	}()
	for panicked == nil {
		if c := m.failure.Load(); c != nil {
			return nil, fmt.Errorf("msg: machine stopped: %w", c.err)
		}
		next := o.next
		if next < 0 {
			next = o.first(-1)
		}
		if next < 0 {
			break
		}
		if math.IsInf(o.keys[next], 1) {
			return nil, o.deadlock()
		}
		o.next = -1
		o.ranks[next].resume()
	}
	if panicked != nil {
		panic(panicked)
	}
	out := make([]Replayed, m.P)
	for i := range o.ranks {
		out[i] = Replayed{Now: o.ranks[i].proc.now, Stats: o.ranks[i].proc.stats}
	}
	return out, nil
}

// first returns the unfinished rank other than skip with the smallest
// (key, rank), or -1 if there is none.
func (o *ordered) first(skip int) int {
	best := -1
	for i, k := range o.keys {
		if i != skip && !o.ranks[i].returned && (best < 0 || k < o.keys[best]) {
			best = i
		}
	}
	return best
}

// post files a message from a running rank in dst's inbox and, if dst is
// blocked on something it matches, pulls dst's key forward.
func (o *ordered) post(dst int, msg message) {
	o.seq++
	s := stamped{message: msg, seq: o.seq}
	v := &o.ranks[dst]
	at := sort.Search(len(v.inbox), func(i int) bool { return s.before(&v.inbox[i]) })
	v.inbox = append(v.inbox, stamped{})
	copy(v.inbox[at+1:], v.inbox[at:])
	v.inbox[at] = s
	if v.block && v.parked.matches(&s.message) {
		o.keys[dst] = math.Min(o.keys[dst], math.Max(v.proc.now, s.arrival))
	}
}

// receive parks rank p on w until it is p's turn, then hands it the
// earliest message w matches. Only a poll can come back empty.
func (o *ordered) receive(p *Proc, w *want, block bool) (message, bool) {
	v := &o.ranks[p.id]
	v.tags = append(v.tags[:0], w.tags...)
	v.parked, v.until, v.block = want{src: w.src, tag: w.tag}, p.now, block
	if w.tags != nil {
		v.parked.tags = v.tags
	}
	key := p.now
	if block {
		key, v.until = math.Inf(1), math.Inf(1)
		if i := v.match(); i >= 0 {
			key = math.Max(p.now, v.inbox[i].arrival)
		}
	}
	o.keys[p.id] = key
	// Park unless the rank is first already: nothing another rank can
	// still do reaches back before this key. (Blocked on nothing, it parks
	// for a sender — or for the scheduler to call the deadlock.)
	q := o.first(p.id)
	if math.IsInf(key, 1) || q >= 0 && (o.keys[q] < key || o.keys[q] == key && q < p.id) {
		o.next = q
		if !v.yield(struct{}{}) {
			panic(stopPanic{errUnwound})
		}
	}
	v.block = false
	i := v.match()
	if i < 0 {
		if block {
			// Resumed at +Inf: only the scheduler's deadlock report does
			// that, and it unwinds instead.
			panic("msg: ordered receive resumed with nothing to deliver")
		}
		return message{}, false
	}
	msg := v.inbox[i].message
	v.inbox = append(v.inbox[:i], v.inbox[i+1:]...)
	return msg, true
}

// match returns the inbox index of the earliest message the rank's parked
// receive matches, or -1.
func (v *vrank) match() int {
	for i := range v.inbox {
		if v.inbox[i].arrival > v.until {
			break
		}
		if v.parked.matches(&v.inbox[i].message) {
			return i
		}
	}
	return -1
}

// deadlock reports every unfinished rank and what it is blocked on.
func (o *ordered) deadlock() error {
	var b strings.Builder
	for i := range o.ranks {
		v := &o.ranks[i]
		if v.returned {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "rank %d blocked on ", i)
		switch {
		case v.parked.tags != nil:
			fmt.Fprintf(&b, "tags %v", v.parked.tags)
		case v.parked.tag == AnyTag:
			b.WriteString("any tag")
		default:
			fmt.Fprintf(&b, "tag %d", v.parked.tag)
		}
		if v.parked.src != AnySource {
			fmt.Fprintf(&b, " from rank %d", v.parked.src)
		}
		fmt.Fprintf(&b, " (%d unmatched in its inbox)", len(v.inbox))
	}
	return fmt.Errorf("msg: ordered section deadlocked: %s", b.String())
}
