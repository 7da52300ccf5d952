package fabric

import (
	"fmt"
	"testing"
)

// owner is the shard the gateway routes h to: the first successor, or -1
// on an empty ring.
func owner(r *Ring, h uint64) int {
	if s := r.Successors(h, 1); len(s) > 0 {
		return s[0]
	}
	return -1
}

func TestRingDeterministic(t *testing.T) {
	shards := map[int]string{0: "a", 1: "b", 2: "c"}
	r1 := NewRing(shards)
	r2 := NewRing(shards)
	for i := 0; i < 100; i++ {
		h := hashKey(fmt.Sprintf("key-%d", i))
		if owner(r1, h) != owner(r2, h) {
			t.Fatalf("key %d: owners differ between identical rings", i)
		}
	}
}

func TestRingSpread(t *testing.T) {
	r := NewRing(map[int]string{0: "a", 1: "b", 2: "c"})
	counts := map[int]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[owner(r, hashKey(fmt.Sprintf("key-%d", i)))]++
	}
	for id, c := range counts {
		frac := float64(c) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("shard %d owns %.1f%% of keys; want roughly a third", id, 100*frac)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d shards own keys; want 3", len(counts))
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(map[int]string{0: "a", 1: "b", 2: "c"})
	s := r.Successors(hashKey("job"), 3)
	if len(s) != 3 {
		t.Fatalf("got %d successors, want 3", len(s))
	}
	seen := map[int]bool{}
	for _, id := range s {
		if seen[id] {
			t.Fatalf("duplicate shard %d in successor list %v", id, s)
		}
		seen[id] = true
	}
	if more := r.Successors(hashKey("job"), 10); len(more) != 3 {
		t.Fatalf("asking for more successors than shards returned %d, want 3", len(more))
	}
}

// Removing one shard must only move that shard's keys: everyone else's
// owner is stable. This is the property that keeps re-routing after a
// shard death cheap.
func TestRingStabilityUnderRemoval(t *testing.T) {
	full := NewRing(map[int]string{0: "a", 1: "b", 2: "c"})
	reduced := NewRing(map[int]string{0: "a", 2: "c"})
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		h := hashKey(fmt.Sprintf("key-%d", i))
		before := owner(full, h)
		after := owner(reduced, h)
		if before != 1 && before != after {
			t.Fatalf("key %d moved from surviving shard %d to %d", i, before, after)
		}
		if before == 1 {
			moved++
			if after == 1 {
				t.Fatalf("key %d still owned by removed shard", i)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed shard; spread test is vacuous")
	}
}

// A shard that reconnects under the same name — a new session, new ID —
// must keep its key range: the hash identity is the name.
func TestRingIdentityIsName(t *testing.T) {
	before := NewRing(map[int]string{0: "a", 1: "b", 2: "c"})
	after := NewRing(map[int]string{0: "a", 7: "b", 2: "c"}) // "b" reconnected as session 7
	for i := 0; i < 500; i++ {
		h := hashKey(fmt.Sprintf("key-%d", i))
		b, a := owner(before, h), owner(after, h)
		if b == 1 {
			if a != 7 {
				t.Fatalf("key %d: owner was b(1), now %d; want b(7)", i, a)
			}
			continue
		}
		if b != a {
			t.Fatalf("key %d: owner moved %d → %d though only b's session changed", i, b, a)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := owner(r, 42); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
	if s := r.Successors(42, 3); s != nil {
		t.Fatalf("empty ring successors = %v, want nil", s)
	}
}
