package transport

import (
	"testing"
	"time"
)

// The jittered backoff must (a) stay inside [d/2, d) while d doubles
// from base to cap, (b) decorrelate two users — the thundering-herd
// regression — and (c) give the same windows to callers that count
// their own retries.
func TestBackoffJitterSpread(t *testing.T) {
	base, cap := 100*time.Millisecond, 800*time.Millisecond
	b := NewBackoffSeeded(base, cap, 1)
	want := base
	for i := 0; i < 20; i++ {
		d := b.Next()
		if d < want/2 || d >= want {
			t.Fatalf("draw %d: delay %v outside [%v, %v)", i, d, want/2, want)
		}
		if want < cap {
			want *= 2
			if want > cap {
				want = cap
			}
		}
	}
	b.Reset()
	if d := b.Next(); d < base/2 || d >= base {
		t.Fatalf("after reset: delay %v outside [%v, %v)", d, base/2, base)
	}

	// Two seeds must not produce the same schedule, and repeated draws
	// at the cap must actually spread over the jitter window.
	b1, b2 := NewBackoffSeeded(base, cap, 42), NewBackoffSeeded(base, cap, 43)
	same := true
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		d1, d2 := b1.Next(), b2.Next()
		if d1 != d2 {
			same = false
		}
		seen[d1] = true
	}
	if same {
		t.Fatal("two differently-seeded backoffs produced identical schedules")
	}
	if len(seen) < 16 {
		t.Fatalf("64 draws produced only %d distinct delays; jitter is not spreading", len(seen))
	}

	// jitter() draws stay inside the half-open interval.
	for i := 0; i < 100; i++ {
		if d := b1.Jitter(5*time.Millisecond, 40*time.Millisecond); d < 5*time.Millisecond || d >= 40*time.Millisecond {
			t.Fatalf("jitter draw %v outside [5ms, 40ms)", d)
		}
	}

	// Delay(k) is the k-th window of the same schedule and does not
	// advance it; a shift that overflows lands on the cap.
	for k, want := range []time.Duration{base, 2 * base, 4 * base, cap, cap} {
		if d := b1.Delay(k); d < want/2 || d >= want {
			t.Fatalf("Delay(%d) = %v outside [%v, %v)", k, d, want/2, want)
		}
	}
	if d := b1.Delay(200); d < cap/2 || d >= cap {
		t.Fatalf("Delay(200) = %v outside [%v, %v)", d, cap/2, cap)
	}
}
