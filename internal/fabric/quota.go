package fabric

import (
	"math"
	"slices"
	"time"
)

// TokenBucket is the per-tenant admission throttle: Rate tokens accrue
// per second up to Burst, and each accepted submission spends one.
// Callers pass the current time explicitly so tests drive refill
// deterministically.
type TokenBucket struct {
	Rate  float64 // tokens per second
	Burst float64 // bucket capacity

	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64, now time.Time) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{Rate: rate, Burst: burst, tokens: burst, last: now}
}

// refill accrues tokens for the time elapsed since the last call.
func (b *TokenBucket) refill(now time.Time) {
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens = math.Min(b.Burst, b.tokens+dt*b.Rate)
		b.last = now
	}
}

// Take spends one token if available.
func (b *TokenBucket) Take(now time.Time) bool {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Refund returns one token, undoing a Take whose submission was later
// refused for a non-quota reason (e.g. the dispatch backlog was full).
func (b *TokenBucket) Refund() {
	b.tokens = math.Min(b.Burst, b.tokens+1)
}

// RetryAfter reports how long until the next token accrues — the value
// a 429 response carries in its Retry-After header. A zero-rate bucket
// reports a long but finite backoff rather than +Inf.
func (b *TokenBucket) RetryAfter(now time.Time) time.Duration {
	b.refill(now)
	if b.tokens >= 1 {
		return 0
	}
	if b.Rate <= 0 {
		return time.Hour
	}
	need := 1 - b.tokens
	return time.Duration(need / b.Rate * float64(time.Second))
}

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	// Rate and Burst parameterize the token bucket (defaults from the
	// gateway options).
	Rate  float64
	Burst float64
	// Weight is the weighted-fair-queueing share; a weight-2 tenant
	// drains twice as fast as a weight-1 tenant under contention
	// (default 1).
	Weight float64
}

// tenant is the gateway's per-tenant state: the quota bucket, the WFQ
// backlog, and the virtual-time bookkeeping. Guarded by the gateway
// mutex.
type tenant struct {
	name       string
	weight     float64
	bucket     *TokenBucket
	queue      []*GwJob
	lastFinish float64
}

// tagJob stamps j with its weighted-fair virtual finish time ahead of
// its admission to the backlog. vtime is the scheduler's current
// virtual time; the finish tag is the classic start-time-fair
// approximation: max(vtime, previous finish) + 1/weight, so a
// high-weight tenant's jobs accrue smaller tags and drain
// proportionally faster.
func (t *tenant) tagJob(j *GwJob, vtime float64) {
	start := vtime
	if t.lastFinish > start {
		start = t.lastFinish
	}
	j.FinishTag = start + 1/t.weight
	t.lastFinish = j.FinishTag
}

// requeueFront puts a re-routed job back at the head of its tenant's
// backlog, keeping its original finish tag: a job that already won
// admission and lost its shard must not pay for the fleet's fault.
func (t *tenant) requeueFront(j *GwJob) {
	t.queue = append([]*GwJob{j}, t.queue...)
}

// replaceQueued swaps one backlog entry for another in place, so a
// promoted follower inherits the canceled leader's queue position. The
// promoted job keeps this tenant's slot even if it belongs to another
// tenant: its admission was already counted, and the slot's fair-share
// cost stays with the tenant that queued it.
func (t *tenant) replaceQueued(old, repl *GwJob) {
	if i := slices.Index(t.queue, old); i >= 0 {
		t.queue[i] = repl
	}
}

// removeQueued deletes a backlog entry.
func (t *tenant) removeQueued(j *GwJob) {
	if i := slices.Index(t.queue, j); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
	}
}
