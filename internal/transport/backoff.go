package transport

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Backoff is the one retry schedule of the repository: jittered, capped
// exponential delays for peer dials, machine reassembly and recovery,
// worker rejoins, shard-agent reconnects and parked-result drains. Plain
// exponential backoff synchronizes a fleet: every agent observes the
// gateway die at the same instant, so every agent's k-th retry lands at
// the same instant — a thundering herd straight into the freshly
// restarted gateway's accept loop. Full-range jitter decorrelates them:
// each delay is drawn uniformly from [d/2, d) where d doubles from base
// to cap, so N agents spread across half the window while the expected
// delay keeps its exponential shape.
type Backoff struct {
	mu        sync.Mutex // one schedule may be shared (an agent's reconnect loop and its drain goroutine)
	base, cap time.Duration
	attempt   int
	rng       *rand.Rand
}

// NewBackoff seeds the jitter stream. Two users with different names
// draw different schedules even if started the same nanosecond.
func NewBackoff(base, cap time.Duration, name string) *Backoff {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewBackoffSeeded(base, cap, int64(h.Sum64())^time.Now().UnixNano())
}

// NewBackoffSeeded is the deterministic constructor tests drive.
func NewBackoffSeeded(base, cap time.Duration, seed int64) *Backoff {
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the jittered delay before the next attempt and advances
// the exponential schedule: attempt k (0 is the first) waits in the
// window of base·2^k, capped — also when the shift overflows.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	attempt := b.attempt
	b.attempt++
	b.mu.Unlock()
	d := b.base << attempt
	if d > b.cap || d>>attempt != b.base {
		d = b.cap
	}
	return b.Jitter(d/2, d)
}

// Reset restores the schedule after a healthy session, so a later
// outage starts from the fast end again.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// Jitter draws a uniform delay in [lo, hi) from the same stream; the
// parked-result drain paces its sends with it so N agents reconnecting
// together do not replay their spools in lockstep.
func (b *Backoff) Jitter(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return lo + time.Duration(b.rng.Int63n(int64(hi-lo)))
}
