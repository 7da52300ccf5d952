package fabric

import (
	"testing"
	"time"
)

func TestTokenBucketBurstThenRefill(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	b := NewTokenBucket(2, 3, now) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if !b.Take(now) {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	if b.Take(now) {
		t.Fatal("take beyond burst allowed")
	}
	if ra := b.RetryAfter(now); ra <= 0 || ra > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s] at 2 tokens/s", ra)
	}

	// Half a second refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if !b.Take(now) {
		t.Fatal("take after refill refused")
	}
	if b.Take(now) {
		t.Fatal("second take after single-token refill allowed")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	b := NewTokenBucket(100, 2, now)
	now = now.Add(time.Hour) // long idle must not bank unlimited tokens
	took := 0
	for b.Take(now) {
		took++
	}
	if took != 2 {
		t.Fatalf("took %d tokens after long idle, want burst=2", took)
	}
}

func TestTokenBucketZeroRate(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	b := NewTokenBucket(0, 1, now)
	if !b.Take(now) {
		t.Fatal("initial burst token refused")
	}
	if b.Take(now) {
		t.Fatal("zero-rate bucket refilled")
	}
	if ra := b.RetryAfter(now); ra != time.Hour {
		t.Fatalf("zero-rate RetryAfter = %v, want the finite 1h fallback", ra)
	}
}

// Weighted fair queueing: with equal arrival, a weight-2 tenant's jobs
// carry smaller finish tags than a weight-1 tenant's at the same queue
// depth, so it drains proportionally faster.
func TestWFQTagsFavorWeight(t *testing.T) {
	heavy := &tenant{name: "heavy", weight: 2}
	light := &tenant{name: "light", weight: 1}
	const each = 4
	for i := 0; i < each; i++ {
		h, l := &GwJob{}, &GwJob{}
		heavy.tagJob(h, 0)
		light.tagJob(l, 0)
		heavy.queue, light.queue = append(heavy.queue, h), append(light.queue, l)
	}
	// Drain in global finish-tag order, the way dispatchLocked does.
	var order []string
	hq, lq := heavy.queue, light.queue
	for len(hq) > 0 || len(lq) > 0 {
		switch {
		case len(hq) == 0:
			order = append(order, "l")
			lq = lq[1:]
		case len(lq) == 0:
			order = append(order, "h")
			hq = hq[1:]
		case hq[0].FinishTag <= lq[0].FinishTag:
			order = append(order, "h")
			hq = hq[1:]
		default:
			order = append(order, "l")
			lq = lq[1:]
		}
	}
	// In the first half of the drain, heavy should get ~2/3 of slots.
	half := order[:len(order)/2]
	h := 0
	for _, who := range half {
		if who == "h" {
			h++
		}
	}
	if h < len(half)*3/5 {
		t.Fatalf("weight-2 tenant got %d of first %d slots (%v); want a clear majority", h, len(half), order)
	}
}

func TestRequeueFrontKeepsTag(t *testing.T) {
	tn := &tenant{name: "t", weight: 1}
	a, b := &GwJob{}, &GwJob{}
	tn.tagJob(a, 0)
	tn.tagJob(b, 0)
	tn.queue = []*GwJob{b} // a leased
	tag := a.FinishTag
	tn.requeueFront(a)
	if tn.queue[0] != a {
		t.Fatal("re-routed job not at the head of its tenant queue")
	}
	if a.FinishTag != tag {
		t.Fatalf("re-queue changed finish tag %v → %v; a faulted job must not pay twice", tag, a.FinishTag)
	}
}
