package let

import (
	"math"

	"repro/internal/vec"
)

// Domain is a peer's particle domain as an owner sees it when it builds the
// peer's essential sets: the bounding box the ranks all-gather, and the
// peer's branch cells in the replicated top tree every rank holds. Build a
// peer's sections one after another with one Domain, made afresh each
// step: it carries the cell that opened the last node opened from one
// section into the next, where that cell opens the first nodes as often as
// not.
type Domain struct {
	Bounds
	Cells *Cells
	Rank  int   // the peer: its branch cells are those Cells lists it as owning
	hint  int32 // one more than the Cells index of that cell; 0 before any
}

// Cells is the geometry of the replicated top tree in DFS order: each
// node's box, its skip pointer, whether it is a branch cell, and the sets
// of ranks owning one, and two or more, branch cells at or below it.
// Against it the essential-set test looks for a branch cell of the peer's
// that can open a node, skipping every subtree the peer owns nothing under
// and every one whose box the MAC accepts from as a whole. One Cells
// serves every owner and every peer of a step; it is read-only once built.
type Cells struct {
	domain   vec.Box
	pad      float64
	min, max []vec.V3
	skip     []int32
	branch   []bool
	words    int      // per node in under and many
	under    []uint64 // bit r of node i's words: rank r owns a branch cell at or below i
	many     []uint64 // likewise, two or more
}

// cellPadUlps bounds, in ulps of the largest coordinate of the domain, how
// far outside its cell's box a particle keyed into that cell can sit: the
// key's quantization rounds a few times, and each of up to 21 halvings that
// place a box face rounds by at most half an ulp.
const cellPadUlps = 64

// NewCells starts the geometry of a top tree rooted at domain whose branch
// cells are owned among p ranks. Append it in DFS order: AddTop, the
// subtree, Close; AddBranch for each branch cell.
func NewCells(domain vec.Box, p int) *Cells {
	m := domain.LongestSide()
	for _, v := range []vec.V3{domain.Min, domain.Max} {
		m = math.Max(m, math.Max(math.Abs(v.X), math.Max(math.Abs(v.Y), math.Abs(v.Z))))
	}
	return &Cells{domain: domain, pad: cellPadUlps * (math.Nextafter(m, math.Inf(1)) - m), words: (p + 63) / 64}
}

// AddTop appends a top node; Close it after its subtree.
func (c *Cells) AddTop(box vec.Box) int32 { return c.add(box, false) }

// AddBranch appends a branch cell owned by owners.
func (c *Cells) AddBranch(box vec.Box, owners []int) {
	i := int(c.add(box, true))
	for _, o := range owners {
		c.under[i*c.words+o/64] |= 1 << (o % 64)
	}
}

// Close ends top node i's subtree: its skip pointer passes the subtree and
// its owner sets are folded from its children's.
func (c *Cells) Close(i int32) {
	end := int32(len(c.skip))
	c.skip[i] = end
	w := c.words
	under, many := c.under[int(i)*w:int(i+1)*w], c.many[int(i)*w:int(i+1)*w]
	for j := i + 1; j < end; j = c.skip[j] {
		for k := range w {
			b := c.under[int(j)*w+k]
			many[k] |= c.many[int(j)*w+k] | under[k]&b
			under[k] |= b
		}
	}
}

func (c *Cells) add(box vec.Box, branch bool) int32 {
	// A face on the domain's is open: a particle outside the domain is keyed
	// into a boundary cell (its key clamps), and clipping to the peer's
	// bounding box makes the face real again.
	lo, hi := box.Min, box.Max
	lo.X, hi.X = open(lo.X, hi.X, c.domain.Min.X, c.domain.Max.X)
	lo.Y, hi.Y = open(lo.Y, hi.Y, c.domain.Min.Y, c.domain.Max.Y)
	lo.Z, hi.Z = open(lo.Z, hi.Z, c.domain.Min.Z, c.domain.Max.Z)
	i := int32(len(c.skip))
	c.min = append(c.min, lo)
	c.max = append(c.max, hi)
	c.skip = append(c.skip, i+1)
	c.branch = append(c.branch, branch)
	for range c.words {
		c.under = append(c.under, 0)
		c.many = append(c.many, 0)
	}
	return i
}

func open(lo, hi, dlo, dhi float64) (float64, float64) {
	if lo == dlo {
		lo = math.Inf(-1)
	}
	if hi == dhi {
		hi = math.Inf(1)
	}
	return lo, hi
}

func bit(set []uint64, i int32, words, rank int) bool {
	return set[int(i)*words+rank/64]&(1<<(rank%64)) != 0
}

// owns reports whether rank owns a branch cell at or below node i.
func (c *Cells) owns(i int32, rank int) bool { return bit(c.under, i, c.words, rank) }

// essential is the essential-set test of one BuildSection walk.
type essential struct {
	dom   *Domain
	alpha float64
	extra int // box tests beyond each node's first
}

// closed reports whether the MAC provably accepts a node from every
// particle of the peer: from everywhere in its bounding box, or else from
// everywhere in each of its branch cells. The cell that opened the last
// node opened is tried first, as the likeliest to open this one; since the
// bounding box holds it, an open it finds costs the one test a
// bounding-box walk spends. The descent tests a top node only where the
// peer owns two or more cells under it; one cell alone is tested itself.
func (t *essential) closed(com vec.V3, side float64) bool {
	hint := t.dom.hint - 1
	if hint >= 0 {
		if !t.cellCloses(hint, com, side) {
			return false
		}
		t.extra++
	}
	if t.dom.Closed(com, side, t.alpha) {
		return true
	}
	c, r := t.dom.Cells, t.dom.Rank
	// The root's clipped box is the bounding box, which just opened the
	// node: the root is descended untested.
	for i := int32(0); i < int32(len(c.skip)); {
		if !c.owns(i, r) || i == hint {
			i = c.skip[i]
			continue
		}
		if i > 0 && (c.branch[i] || bit(c.many, i, c.words, r)) {
			t.extra++
			if t.cellCloses(i, com, side) {
				i = c.skip[i]
				continue
			}
		}
		if c.branch[i] {
			t.dom.hint = i + 1
			return false
		}
		i++
	}
	return true
}

// cellCloses is the closed test against Cells node i clipped to the peer's
// bounding box and padded by the keying slack.
func (t *essential) cellCloses(i int32, com vec.V3, side float64) bool {
	c, b := t.dom.Cells, t.dom.Bounds
	pad := vec.V3{X: c.pad, Y: c.pad, Z: c.pad}
	box := Bounds{Has: true, Min: c.min[i].Max(b.Min).Sub(pad), Max: c.max[i].Min(b.Max).Add(pad)}
	return box.Closed(com, side, t.alpha)
}
