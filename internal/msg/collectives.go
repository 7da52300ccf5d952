package msg

import "math/bits"

// Collective operations. All processors of the machine must call the same
// collectives in the same order (standard SPMD discipline); a per-proc
// sequence number keeps successive collectives from interfering even when
// processors drift in simulated time.
//
// The implementations are the classical hypercube/ring algorithms from
// Kumar, Grama, Gupta & Karypis, "Introduction to Parallel Computing"
// (the paper's reference [20] for its all-to-all personalized
// communication): recursive doubling for all-to-all broadcast on
// power-of-two machines, a ring otherwise, binomial trees for one-to-all
// broadcast, and pairwise exchange for all-to-all personalized
// communication. Their costs emerge from the underlying Send/Recv model
// rather than being charged as formulas.

const collTagBase = 1 << 20

// pack is the recursive-doubling AllGather envelope: the set of
// (rank, payload, words) triples a processor has accumulated so far.
// It crosses process boundaries on distributed machines, so it has a
// transport codec (codec.go).
type pack struct {
	ranks []int
	items []any
	words []int
}

// collTagStride reserves a block of tags per collective invocation so
// multi-round collectives can use tag+round without colliding with the
// next collective.
const collTagStride = 64

// nextCollTag returns a fresh tag block for one collective invocation.
func (p *Proc) nextCollTag() int {
	p.collSeq++
	return collTagBase + p.collSeq*collTagStride
}

// Barrier blocks until all processors reach it. Clocks are synchronized
// to the latest arrival implied by the dissemination pattern, so after a
// barrier every clock is at least the pre-barrier maximum.
func (p *Proc) Barrier() {
	tag := p.nextCollTag()
	n := p.m.P
	if n == 1 {
		return
	}
	round := 0
	for step := 1; step < n; step <<= 1 {
		dst := (p.id + step) % n
		src := (p.id - step + n) % n
		p.Send(dst, tag+round, p.now, 1)
		p.Recv(src, tag+round)
		round++
	}
}

// Bcast distributes root's payload to every processor and returns it.
// Non-root callers pass any placeholder (ignored). The algorithm is a
// binomial tree rooted at root.
func (p *Proc) Bcast(root int, payload any, words int) any {
	tag := p.nextCollTag()
	n := p.m.P
	if n == 1 {
		return payload
	}
	rel := (p.id - root + n) % n // rank relative to root
	// Find the step at which this processor receives: the lowest set bit
	// of rel (root "receives" at step n).
	if rel != 0 {
		data, _ := p.Recv(AnySource, tag)
		payload = data
	}
	// Forward to processors whose relative rank is rel + 2^k for
	// 2^k > lowbit(rel) ... classic binomial: processor rel sends to
	// rel + s for each s = 2^k with s > rel's low bit and rel+s < n,
	// starting from the top. Equivalent standard loop:
	low := rel & (-rel)
	if rel == 0 {
		low = 1 << uint(bits.Len(uint(n-1)))
	}
	for s := low >> 1; s >= 1; s >>= 1 {
		child := rel + s
		if rel == 0 {
			child = s
		}
		if child < n && child != rel {
			p.Send((child+root)%n, tag, payload, words)
		}
	}
	return payload
}

// AllGather performs an all-to-all broadcast: every processor contributes
// payload (words 8-byte words) and receives the contributions of all
// processors, indexed by rank. For power-of-two machines it uses
// recursive doubling (log p rounds with doubling message sizes); other
// sizes use a ring.
func (p *Proc) AllGather(payload any, words int) []any {
	tag := p.nextCollTag()
	n := p.m.P
	out := make([]any, n)
	wordsOf := make([]int, n)
	out[p.id] = payload
	wordsOf[p.id] = words
	if n == 1 {
		return out
	}
	if n&(n-1) == 0 {
		// Recursive doubling: at round k exchange everything held so far
		// with the partner differing in bit k.
		held := []int{p.id}
		for step := 1; step < n; step <<= 1 {
			partner := p.id ^ step
			pk := pack{}
			total := 0
			for _, r := range held {
				pk.ranks = append(pk.ranks, r)
				pk.items = append(pk.items, out[r])
				pk.words = append(pk.words, wordsOf[r])
				total += wordsOf[r]
			}
			p.Send(partner, tag, pk, total)
			data, _ := p.Recv(partner, tag)
			got := data.(pack)
			for i, r := range got.ranks {
				out[r] = got.items[i]
				wordsOf[r] = got.words[i]
				held = append(held, r)
			}
		}
		return out
	}
	// Ring: pass the most recently received item to the right.
	right := (p.id + 1) % n
	left := (p.id - 1 + n) % n
	cur := p.id
	for step := 0; step < n-1; step++ {
		p.Send(right, tag, [3]any{cur, wordsOf[cur], out[cur]}, wordsOf[cur]+1)
		data, _ := p.Recv(left, tag)
		item := data.([3]any)
		r := item[0].(int)
		wordsOf[r] = item[1].(int)
		out[r] = item[2]
		cur = r
	}
	return out
}

// AllToAll performs all-to-all personalized communication: payloads[i]
// goes to processor i (words[i] 8-byte words each; nil/0 entries are
// still delivered so receivers can rely on one message per peer). The
// returned slice holds the payload received from each rank. The paper
// uses this to move particles between processors after re-partitioning.
func (p *Proc) AllToAll(payloads []any, words []int) []any {
	if len(payloads) != p.m.P || len(words) != p.m.P {
		panic("msg: AllToAll needs one payload per processor")
	}
	tag := p.nextCollTag()
	n := p.m.P
	out := make([]any, n)
	out[p.id] = payloads[p.id]
	for offset := 1; offset < n; offset++ {
		dst := (p.id + offset) % n
		src := (p.id - offset + n) % n
		p.Send(dst, tag, payloads[dst], words[dst])
		data, _ := p.Recv(src, tag)
		out[src] = data
	}
	return out
}

// AllReduceF64 element-wise combines float64 vectors across all
// processors with op and returns the result (identical on every
// processor). Implemented as recursive halving/doubling on power-of-two
// machines and gather+broadcast otherwise.
func (p *Proc) AllReduceF64(x []float64, op func(a, b float64) float64) []float64 {
	tag := p.nextCollTag()
	n := p.m.P
	acc := append([]float64(nil), x...)
	if n == 1 {
		return acc
	}
	if n&(n-1) == 0 {
		round := 0
		for step := 1; step < n; step <<= 1 {
			partner := p.id ^ step
			// Send a snapshot: acc is mutated below while the partner may
			// still be reading the payload (messages share memory).
			snap := append([]float64(nil), acc...)
			p.Send(partner, tag+round, snap, len(acc))
			data, _ := p.Recv(partner, tag+round)
			other := data.([]float64)
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
			round++
		}
		return acc
	}
	// Gather at 0, reduce in rank order (not arrival order, which is the
	// host's), broadcast.
	if p.id == 0 {
		for i := 1; i < n; i++ {
			data, _ := p.Recv(i, tag)
			other := data.([]float64)
			for j := range acc {
				acc[j] = op(acc[j], other[j])
			}
		}
	} else {
		p.Send(0, tag, acc, len(acc))
	}
	res := p.Bcast(0, acc, len(acc))
	return res.([]float64)
}

// SumF64 is AllReduceF64 with addition.
func (p *Proc) SumF64(x []float64) []float64 {
	return p.AllReduceF64(x, func(a, b float64) float64 { return a + b })
}

// MaxF64 is AllReduceF64 with max.
func (p *Proc) MaxF64(x []float64) []float64 {
	return p.AllReduceF64(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// GlobalMaxTime synchronizes all clocks to the global maximum and returns
// it. Used by the engines to delimit phases the way the paper times them.
func (p *Proc) GlobalMaxTime() float64 {
	t := p.MaxF64([]float64{p.now})[0]
	if t > p.now {
		p.stats.CommTime += t - p.now
		p.now = t
	}
	return t
}
