package parbh

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Data-shipping force phase: the owner-computes baseline of Section 4.2.
// When a traversal rejects a remote cell, the cell's children are fetched
// from the owner (monopole summary or full degree-k multipole series,
// particle coordinates for leaves) and cached in the local image of the
// tree; the requesting processor then continues the traversal itself.
//
// Two request disciplines share this engine. DataShipping batches fetches
// per wave and deduplicates them, so each remote cell is transferred at
// most once per processor — a best-case rendering of data shipping; even
// so its communication volume scales as Θ(k²) per cell while function
// shipping stays at 3 words per particle (Section 4.2.1).
// DataShippingNaive is the literal per-visit baseline the paper argues
// against: every blocked particle-visit issues its own fetch, with no
// request coalescing — the owner serves (and the wire carries) one reply
// per visit. The fetched cells still land in the shared cache, so the
// physics, traversal structure, and Stats are identical; only the
// communication accounting differs, strictly upward.

// fetchedChild is one child cell shipped to a requester.
type fetchedChild struct {
	Sum       BranchSummary
	IsLeaf    bool
	Particles []wireParticle // leaf payload
}

func (f fetchedChild) words() int {
	if f.IsLeaf {
		return 4 * len(f.Particles) // id, mass, x, y, z packed — model 4 words
	}
	return f.Sum.Words()
}

// fetchedCell is the reply for one requested cell key.
type fetchedCell struct {
	Key      uint64
	Children []fetchedChild
}

// dsNode is one cell of a rank's image of the global tree. The cell's
// summary is a node of the replicated tree, which every rank of the process
// shares and none writes, or a private node made from a fetched summary;
// what the rank learns by fetching — children, a leaf's particles — it
// grafts onto its own dsNode.
type dsNode struct {
	*pnode
	kids  *[8]*dsNode // nil until the cell can be expanded here
	local *tree.Tree  // the tree of the subtree here: this rank's own, or a fetched leaf's; nil when neither
	at    int32       // the subtree's root in local
}

// image copies the skeleton of the replicated tree under n for st's rank
// and enters every cell in index.
func (st *localState) image(n *pnode, index map[uint64]*dsNode) *dsNode {
	if n == nil {
		return nil
	}
	d := &dsNode{pnode: n}
	index[n.cell.Uint64()] = d
	if n.isBranch {
		if root := st.ownRoot(n); root >= 0 {
			d.local, d.at = st.tree, root
		}
		return d
	}
	d.kids = new([8]*dsNode)
	for oct, c := range n.children {
		d.kids[oct] = st.image(c, index)
	}
	return d
}

// dsWork is one particle's suspended traversal.
type dsWork struct {
	idx   int // local particle index
	stack []*dsNode
	accF  vec.V3
	accP  float64
}

// dsVisit records one blocked particle-visit in discovery order (the
// naive per-visit request stream).
type dsVisit struct {
	key   uint64
	owner int
}

// dataShipPhase runs the wave-synchronous data-shipping computation.
func (e *Engine) dataShipPhase(pr *msg.Proc, st *localState, res *Result) {
	t0 := pr.Stats().ComputeTime
	cfg := e.cfg
	deg := cfg.degreeOrMonopole()
	p := pr.NumProcs()
	naive := cfg.Shipping == DataShippingNaive

	// The rank's image of the tree, every cell indexed for cache insertion.
	index := make(map[uint64]*dsNode)
	root := st.image(st.top, index)

	// Seed one work item per particle.
	work := make([]*dsWork, len(st.parts))
	for i := range st.parts {
		work[i] = &dsWork{idx: i, stack: []*dsNode{root}}
	}
	active := work

	processStack := func(w *dsWork, needed map[uint64]int, visits *[]dsVisit) {
		var blocked []*dsNode
		block := func(n *dsNode) {
			needed[n.cell.Uint64()] = n.owners[0]
			*visits = append(*visits, dsVisit{key: n.cell.Uint64(), owner: n.owners[0]})
			blocked = append(blocked, n)
		}
		for len(w.stack) > 0 {
			n := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if n == nil || n.count == 0 {
				continue
			}
			q := &st.parts[w.idx]
			if n.local != nil {
				var s tree.Stats
				if cfg.Mode == ForceMode {
					w.accF = w.accF.Add(n.local.AccelFrom(n.at, q.Pos, q.ID, cfg.Alpha, cfg.Eps, &s))
				} else {
					w.accP += n.local.PotentialFrom(n.at, q.Pos, q.ID, cfg.Alpha, &s)
				}
				st.stats.Add(s)
				pr.Compute(s.Flops(deg))
				continue
			}
			if n.leafCell && n.kids == nil {
				// Remote leaf: must fetch the particles.
				if len(n.owners) > 0 {
					block(n)
				}
				continue
			}
			st.stats.MACTests++
			pr.Compute(phys.MACFlops)
			if d := q.Pos.Dist(n.com); d != 0 && n.side/d < cfg.Alpha {
				st.stats.PC++
				pr.Compute(phys.InteractionFlops(deg))
				if cfg.Mode == ForceMode {
					w.accF = w.accF.Add(phys.Accel(q.Pos, n.com, n.mass, cfg.Eps))
				} else {
					w.accP += n.exp.EvalPotential(q.Pos)
				}
				continue
			}
			if n.kids != nil {
				// Push in reverse so children pop in Morton order.
				for oct := 7; oct >= 0; oct-- {
					if n.kids[oct] != nil {
						w.stack = append(w.stack, n.kids[oct])
					}
				}
				continue
			}
			// Remote internal cell with unfetched children.
			if len(n.owners) > 0 {
				block(n)
			}
		}
		w.stack = blocked
	}

	for {
		needed := make(map[uint64]int)
		var visits []dsVisit
		var parked []*dsWork
		for _, w := range active {
			processStack(w, needed, &visits)
			if len(w.stack) > 0 {
				parked = append(parked, w)
			}
		}
		// Global agreement on another wave.
		pending := len(needed)
		if naive {
			pending = len(visits)
		}
		global := pr.SumF64([]float64{float64(pending)})
		if global[0] == 0 {
			break
		}
		// Batch requests per owner: one entry per distinct cell, or — for
		// the naive baseline — one per blocked visit in discovery order.
		reqs := make([][]uint64, p)
		if naive {
			for _, v := range visits {
				reqs[v.owner] = append(reqs[v.owner], v.key)
			}
		} else {
			for key, owner := range needed {
				reqs[owner] = append(reqs[owner], key)
			}
			for i := range reqs {
				sort.Slice(reqs[i], func(a, b int) bool { return reqs[i][a] < reqs[i][b] })
			}
		}
		payloads := make([]any, p)
		words := make([]int, p)
		for i := range reqs {
			payloads[i] = reqs[i]
			words[i] = len(reqs[i])
		}
		recvReq := pr.AllToAll(payloads, words)
		// Serve.
		repPayloads := make([]any, p)
		repWords := make([]int, p)
		for src := 0; src < p; src++ {
			ks := recvReq[src].([]uint64)
			var cells []fetchedCell
			w := 0
			for _, key := range ks {
				pr.Compute(st.lookup.cost())
				cell := e.serveFetch(st, key)
				for _, c := range cell.Children {
					w += c.words()
				}
				pr.Compute(float64(len(cell.Children)) * 4)
				cells = append(cells, cell)
			}
			repPayloads[src] = cells
			repWords[src] = w + 1
		}
		recvRep := pr.AllToAll(repPayloads, repWords)
		// Insert fetched children into the cache.
		for src := 0; src < p; src++ {
			for _, cell := range recvRep[src].([]fetchedCell) {
				parent := index[cell.Key]
				if parent == nil {
					continue
				}
				for _, fc := range cell.Children {
					ck := keys.CellKeyFromUint64(fc.Sum.Key)
					if fc.Sum.Key == cell.Key {
						// A leaf branch cell answered for itself: materialize
						// the particles into the placeholder node. A duplicate
						// reply (naive mode fetches once per visit) must leave
						// the first materialization alone.
						if parent.local == nil {
							parent.local = e.fetchedLeaf(fc, ck)
						}
						continue
					}
					if parent.kids == nil {
						parent.kids = new([8]*dsNode)
					}
					if parent.kids[ck.Octant()] != nil {
						// Duplicate reply for an already-inserted child (naive
						// mode): keep the existing node — parked traversal
						// stacks may already reference it.
						continue
					}
					sum := newPnode(ck, keys.CellBox(e.domain, ck))
					sum.mass, sum.com, sum.count = fc.Sum.Mass, fc.Sum.COM, int(fc.Sum.Count)
					if cfg.Mode == PotentialMode && fc.Sum.Exp != nil {
						if ex, err := phys.ExpansionFromFloats(cfg.Degree, fc.Sum.Exp); err == nil {
							sum.exp = ex
						}
					}
					child := &dsNode{pnode: sum}
					if fc.IsLeaf {
						// Materialize the leaf locally so near-field sums run
						// in place.
						child.local = e.fetchedLeaf(fc, ck)
					} else {
						sum.owners = []int{int(fc.Sum.Owner)}
						sum.leafCell = int(fc.Sum.Count) <= e.cfg.LeafCap
					}
					// The parent placeholder now has children and is no
					// longer fetchable.
					parent.kids[ck.Octant()] = child
					index[fc.Sum.Key] = child
				}
			}
		}
		active = parked
	}

	// Write results.
	if cfg.Mode == ForceMode {
		for _, w := range work {
			res.Accels[st.parts[w.idx].ID] = w.accF
		}
	} else {
		for _, w := range work {
			res.Potentials[st.parts[w.idx].ID] = w.accP
		}
	}
	st.forceT = pr.Stats().ComputeTime - t0
}

// fetchedLeaf builds the subtree of a leaf cell shipped with its
// particles; its root is node 0.
func (e *Engine) fetchedLeaf(fc fetchedChild, ck keys.CellKey) *tree.Tree {
	ps := fromWire(make([]dist.Particle, 0, len(fc.Particles)), fc.Particles)
	ln := tree.BuildSubtreeKeyed(ps, e.domain, ck, e.cfg.LeafCap)
	if e.cfg.Mode == PotentialMode {
		ln.BuildExpansionsAt(0, e.cfg.Degree)
	}
	return ln
}

// serveFetch builds the reply for one requested cell: summaries of its
// children (or its particles, for a leaf asked to materialize).
func (e *Engine) serveFetch(st *localState, key uint64) fetchedCell {
	out := fetchedCell{Key: key}
	t, node := st.tree, e.findLocalCell(st, key)
	if node < 0 {
		return out
	}
	withExp := e.cfg.Mode == PotentialMode
	if t.IsLeaf(node) {
		// The requester asked for a leaf's contents: return the leaf
		// itself as a single "child" carrying particles. The requester
		// replaces the placeholder cell (keyed by the leaf) — but since a
		// parent pointer is keyed by the child's octant, we return it as a
		// child of itself is wrong; instead leaves are always shipped as
		// children of their parent (below), so this path only triggers for
		// a branch node that is itself a leaf cell.
		s := summaryOf(t, node, st.me, withExp)
		out.Children = []fetchedChild{{Sum: s, IsLeaf: true, Particles: toWire(t.Particles(node))}}
		return out
	}
	for c := node + 1; c < t.Skip[node]; c = t.Skip[c] {
		fc := fetchedChild{Sum: summaryOf(t, c, st.me, withExp)}
		if t.IsLeaf(c) {
			fc.IsLeaf = true
			fc.Particles = toWire(t.Particles(c))
		}
		out.Children = append(out.Children, fc)
	}
	return out
}

// findLocalCell resolves a packed cell key to a node of this processor's
// local subtrees (-1 for none): the nearest branch ancestor is located
// through the lookup structure and the remaining path is walked down.
func (e *Engine) findLocalCell(st *localState, key uint64) int32 {
	t := st.tree
	ck := keys.CellKeyFromUint64(key)
	anc := ck
	for {
		if n := st.lookup.find(anc.Uint64()); n >= 0 {
			// Walk down from the branch root to the requested cell.
			cur := n
			for lvl := int(anc.Level); lvl < int(ck.Level) && cur >= 0; lvl++ {
				oct := int(ck.Key>>(3*uint(int(ck.Level)-lvl-1))) & 7
				next := int32(-1)
				for c := cur + 1; c < t.Skip[cur]; c = t.Skip[c] {
					if t.Cell(c).Octant() == oct {
						next = c
					}
				}
				cur = next
			}
			return cur
		}
		if anc.Level == 0 {
			return -1
		}
		anc = anc.Parent()
	}
}
