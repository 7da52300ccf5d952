package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringReplicas is the number of virtual nodes per shard. 64 points per
// shard keeps the expected load spread within a few percent of uniform
// for small fleets while keeping ring rebuilds trivially cheap.
const ringReplicas = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over shard IDs. It is an immutable
// value: membership changes build a new ring, so a dead shard's keys
// re-route to their ring successors while every other key keeps its
// owner — the property that makes re-routing after a shard death cheap
// and cache locality stable as the fleet grows.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over the given shard IDs with names providing
// the hash identity (names, not IDs, so a shard that reconnects under a
// new session keeps its ring positions).
func NewRing(shards map[int]string) *Ring {
	r := &Ring{}
	for id, name := range shards {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s#%d", name, v)),
				shard: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Successors returns up to max distinct shard IDs clockwise from h: the
// key's owner first, then its failover order. An empty ring returns nil.
func (r *Ring) Successors(h uint64, max int) []int {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []int
	seen := map[int]bool{}
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// hashKey maps a string key onto the ring: FNV-1a followed by a 64-bit
// avalanche finalizer. Raw FNV-1a is a poor ring hash — strings that
// differ only in a trailing digit ("s1#0" … "s1#63") land within a
// narrow band of high bits, which would collapse a shard's 64 virtual
// nodes into one arc and re-create hot spots. The finalizer (the
// murmur3/splitmix mixing steps) gives every input bit full influence
// over the ring position. The routing hash does not need to be
// cryptographic — the cache key underneath it already is — it only
// needs to spread well.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
