package parbh

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/keys"
	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Function shipping runs on the packet kernel on both sides, in force mode
// and in potential mode. These tests hold it to the recursion it replaced
// — traverseForce/serveForce and traversePot/servePot below are that code,
// kept as the oracle — bit for bit: accelerations,
// potentials, per-rank Stats, every tree node's Load, the extra-load
// account, and the words and messages of the protocol.

// serveForce computes the contribution of the subtree rooted at branch to
// a shipped particle. The requester already rejected the branch cell
// under the MAC, so evaluation starts at its children (or at the
// particles for a leaf branch), mirroring exactly what a serial traversal
// does after rejecting the node.
func serveForce(t *tree.Tree, branch int32, pos vec.V3, self int, alpha, eps float64, stats *tree.Stats) vec.V3 {
	if t.IsLeaf(branch) {
		return t.AccelFrom(branch, pos, self, alpha, eps, stats)
	}
	var a vec.V3
	for c := branch + 1; c < t.Skip[branch]; c = t.Skip[c] {
		a = a.Add(t.AccelFrom(c, pos, self, alpha, eps, stats))
	}
	t.Load[branch]++
	return a
}

// servePot computes the contribution of the subtree rooted at branch to
// a shipped particle in potential mode, by recursion: as in force mode,
// evaluation starts below the already rejected branch cell.
func servePot(t *tree.Tree, branch int32, pos vec.V3, self int, alpha float64, stats *tree.Stats) float64 {
	if t.IsLeaf(branch) {
		return t.PotentialFrom(branch, pos, self, alpha, stats)
	}
	var phi float64
	for c := branch + 1; c < t.Skip[branch]; c = t.Skip[c] {
		phi += t.PotentialFrom(c, pos, self, alpha, stats)
	}
	t.Load[branch]++
	return phi
}

// acceptsSummary applies the Barnes–Hut MAC to a replicated node summary.
func acceptsSummary(n *pnode, pos vec.V3, alpha float64) bool {
	d := pos.Dist(n.com)
	if d == 0 {
		return false
	}
	return n.side/d < alpha
}

// shipOracle is one rank's pointer-recursion traversal state: what the
// retired shipRun kept, with ship reduced to recording the slot.
type shipOracle struct {
	cfg       Config
	st        *localState // resolves the rank's own branch cells
	stats     tree.Stats
	extraLoad map[int]float64
	curID     int
	slots     []oracleSlot
}

// oracleSlot is one shipped (particle, branch, owner) request.
type oracleSlot struct {
	owner    int
	key      uint64
	pos      vec.V3
	self     int
	localIdx int
}

func (r *shipOracle) ship(n *pnode, pos vec.V3, self, localIdx int) {
	for _, o := range n.owners {
		r.slots = append(r.slots, oracleSlot{owner: o, key: n.cell.Uint64(), pos: pos, self: self, localIdx: localIdx})
	}
}

func (r *shipOracle) chargeMAC() bool {
	r.stats.MACTests++
	return true
}

func (r *shipOracle) chargePC() {
	r.stats.PC++
	r.extraLoad[r.curID] += phys.InteractionFlops(r.cfg.degreeOrMonopole()) + phys.MACFlops
}

// traverseForce walks the replicated tree for one particle, accumulating
// local contributions and binning remote ones.
func (r *shipOracle) traverseForce(n *pnode, pos vec.V3, self, localIdx int) vec.V3 {
	if n == nil || n.count == 0 {
		return vec.V3{}
	}
	if n.isBranch && r.st.ownRoot(n) >= 0 {
		var s tree.Stats
		a := r.st.tree.AccelFrom(r.st.ownRoot(n), pos, self, r.cfg.Alpha, r.cfg.Eps, &s)
		r.stats.Add(s)
		return a
	}
	if n.isBranch {
		// Remote branch: leaf cells always ship (a serial traversal would
		// do particle–particle sums there); internal cells MAC-test the
		// replicated summary first.
		if n.leafCell {
			r.ship(n, pos, self, localIdx)
			return vec.V3{}
		}
		if r.chargeMAC() && acceptsSummary(n, pos, r.cfg.Alpha) {
			r.chargePC()
			return phys.Accel(pos, n.com, n.mass, r.cfg.Eps)
		}
		r.ship(n, pos, self, localIdx)
		return vec.V3{}
	}
	// Replicated top node.
	if r.chargeMAC() && acceptsSummary(n, pos, r.cfg.Alpha) {
		r.chargePC()
		return phys.Accel(pos, n.com, n.mass, r.cfg.Eps)
	}
	var a vec.V3
	for _, c := range n.children {
		if c != nil {
			a = a.Add(r.traverseForce(c, pos, self, localIdx))
		}
	}
	return a
}

// traversePot walks the replicated tree for one particle in potential
// mode, accumulating local contributions and binning remote ones.
func (r *shipOracle) traversePot(n *pnode, pos vec.V3, self, localIdx int) float64 {
	if n == nil || n.count == 0 {
		return 0
	}
	if n.isBranch && r.st.ownRoot(n) >= 0 {
		var s tree.Stats
		phi := r.st.tree.PotentialFrom(r.st.ownRoot(n), pos, self, r.cfg.Alpha, &s)
		r.stats.Add(s)
		return phi
	}
	if n.isBranch {
		if n.leafCell {
			r.ship(n, pos, self, localIdx)
			return 0
		}
		if r.chargeMAC() && acceptsSummary(n, pos, r.cfg.Alpha) {
			r.chargePC()
			return n.exp.EvalPotential(pos)
		}
		r.ship(n, pos, self, localIdx)
		return 0
	}
	if r.chargeMAC() && acceptsSummary(n, pos, r.cfg.Alpha) {
		r.chargePC()
		return n.exp.EvalPotential(pos)
	}
	var phi float64
	for _, c := range n.children {
		if c != nil {
			phi += r.traversePot(c, pos, self, localIdx)
		}
	}
	return phi
}

// shipWorld is every rank's state after tree merging, and — once a force
// phase or the oracle has run over it — what that left behind.
type shipWorld struct {
	cfg    Config
	states []*localState
	extra  []map[int]float64 // the oracle's extra-load accounts, per rank by particle ID
	accels []vec.V3          // force mode
	pots   []float64         // potential mode
	words  int64             // force-phase communication, all ranks
	msgs   int64
	comm   float64 // force-phase communication and compute time, summed over ranks
	comp   float64
}

// phases runs one step's phases through tree merging (and, under LET, the
// section exchange) on every rank of e, then the engine's force phase if
// force is set. The engine is not advanced.
func phases(t *testing.T, e *Engine, force bool) *shipWorld {
	t.Helper()
	w, err := runPhases(e, force)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runPhases is phases for callers off the test's goroutine; on a
// distributed machine it leaves the states of other processes' ranks nil.
func runPhases(e *Engine, force bool) (*shipWorld, error) {
	p := e.machine.P
	w := newShipWorld(e.cfg, make([]*localState, p), e.n)
	res := &Result{Accels: w.accels, Potentials: w.pots}
	spent := make([]msg.Stats, p)
	merge := new(topMerge)
	_, err := e.machine.RunErr(func(pr *msg.Proc) {
		st := &localState{me: pr.ID(), parts: e.parts[pr.ID()]}
		e.migrate(pr, st)
		e.buildLocal(pr, st)
		e.buildTopPhase(pr, st, e.exchangeBranches(pr, st), merge)
		if e.cfg.Shipping == LETShipping {
			e.letExchange(pr, st)
		}
		before := pr.Stats()
		if force {
			e.forcePhase(pr, st, res)
		}
		after := pr.Stats()
		spent[st.me] = msg.Stats{Words: after.Words - before.Words, Messages: after.Messages - before.Messages,
			CommTime: after.CommTime - before.CommTime, ComputeTime: after.ComputeTime - before.ComputeTime}
		w.states[st.me] = st
	})
	for _, s := range spent {
		w.words += s.Words
		w.msgs += s.Messages
		w.comm += s.CommTime
		w.comp += s.ComputeTime
	}
	return w, err
}

func newShipWorld(cfg Config, states []*localState, n int) *shipWorld {
	return &shipWorld{cfg: cfg, states: states, accels: make([]vec.V3, n), pots: make([]float64, n)}
}

// runOracle evaluates the force phase over w the way the recursion did —
// every particle alone, requests served one at a time on the owners'
// trees, replies folded in slot order — and returns the number of
// entries each (requester, owner) pair exchanged.
func (w *shipWorld) runOracle() [][]int {
	p := len(w.states)
	entries := make([][]int, p)
	w.extra = make([]map[int]float64, p)
	for me, st := range w.states {
		entries[me] = make([]int, p)
		r := &shipOracle{cfg: w.cfg, st: st, extraLoad: map[int]float64{}}
		w.extra[me] = r.extraLoad
		pot := w.cfg.Mode == PotentialMode
		localF, localP := make([]vec.V3, len(st.parts)), make([]float64, len(st.parts))
		for i := range st.parts {
			q := &st.parts[i]
			r.curID = q.ID
			if pot {
				localP[i] = r.traversePot(st.top, q.Pos, q.ID, i)
			} else {
				localF[i] = r.traverseForce(st.top, q.Pos, q.ID, i)
			}
		}
		st.stats.Add(r.stats)
		for _, sl := range r.slots {
			entries[me][sl.owner]++
			owner := w.states[sl.owner]
			var replyF vec.V3
			var replyP float64
			if node := owner.lookup.find(sl.key); node >= 0 {
				var s tree.Stats
				if pot {
					replyP = servePot(owner.tree, node, sl.pos, sl.self, w.cfg.Alpha, &s)
				} else {
					replyF = serveForce(owner.tree, node, sl.pos, sl.self, w.cfg.Alpha, w.cfg.Eps, &s)
				}
				owner.stats.Add(s)
			}
			localF[sl.localIdx] = localF[sl.localIdx].Add(replyF)
			localP[sl.localIdx] += replyP
		}
		for i := range st.parts {
			w.accels[st.parts[i].ID], w.pots[st.parts[i].ID] = localF[i], localP[i]
		}
	}
	return entries
}

// protocolVolume is the words and messages the bin protocol moves for the
// given per-pair entry counts: request bins of 4 words an entry plus one,
// replies of 3 (a potential: 1) plus one, and the two termination waves.
func protocolVolume(entries [][]int, binSize int, mode Mode) (words, msgs int64) {
	p := len(entries)
	perEntry := int64(4 + 3)
	if mode == PotentialMode {
		perEntry = 4 + 1
	}
	for _, row := range entries {
		for _, n := range row {
			bins := int64((n + binSize - 1) / binSize)
			words += perEntry*int64(n) + 2*bins
			msgs += 2 * bins
		}
	}
	return words + 2*int64(p-1), msgs + 2*int64(p-1)
}

func bitsEqual(a, b vec.V3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// compareWorlds demands that got (the engine) left exactly what want (the
// oracle) did. Data shipping counts a remote subtree's interactions on the
// rank that evaluates them, the requester, where function shipping counts
// them on the owner: between the two only the ranks' total must agree.
func compareWorlds(t *testing.T, want, got *shipWorld) {
	t.Helper()
	for i := range want.accels {
		if !bitsEqual(got.accels[i], want.accels[i]) {
			t.Fatalf("accel %d = %v, oracle %v", i, got.accels[i], want.accels[i])
		}
		if math.Float64bits(got.pots[i]) != math.Float64bits(want.pots[i]) {
			t.Fatalf("potential %d = %v, oracle %v", i, got.pots[i], want.pots[i])
		}
	}
	var wantTotal, gotTotal tree.Stats
	perRank := isData(want.cfg.Shipping) == isData(got.cfg.Shipping)
	for me := range want.states {
		ws, gs := want.states[me], got.states[me]
		wantTotal.Add(ws.stats)
		gotTotal.Add(gs.stats)
		if perRank && gs.stats != ws.stats {
			t.Errorf("rank %d: stats %+v, oracle %+v", me, gs.stats, ws.stats)
		}
		we, ge := want.extraLoad(me), got.extraLoad(me)
		if len(ge) != len(we) {
			t.Errorf("rank %d: %d extra-load entries, oracle %d", me, len(ge), len(we))
		}
		for id, v := range we {
			if gv, ok := ge[id]; !ok || gv != v {
				t.Fatalf("rank %d: extraLoad[%d] = %v (present %v), oracle %v", me, id, gv, ok, v)
			}
		}
		if len(gs.branches) != len(ws.branches) {
			t.Fatalf("rank %d: %d branches, oracle %d", me, len(gs.branches), len(ws.branches))
		}
		for b := range ws.branches {
			wl, gl := nodeLoads(ws, ws.branches[b]), nodeLoads(gs, gs.branches[b])
			for j := range wl {
				if gl[j] != wl[j] {
					t.Fatalf("rank %d branch %d node %d: load %d, oracle %d", me, b, j, gl[j], wl[j])
				}
			}
		}
	}
	if gotTotal != wantTotal {
		t.Errorf("stats %+v over all ranks, oracle %+v", gotTotal, wantTotal)
	}
}

func isData(s Shipping) bool { return s == DataShipping || s == DataShippingNaive }

// extraLoad returns rank me's nonzero extra-load charges by particle ID:
// the oracle's account, or the one the force phase left aligned with the
// rank's particles.
func (w *shipWorld) extraLoad(me int) map[int]float64 {
	if w.extra != nil {
		return w.extra[me]
	}
	st := w.states[me]
	if len(st.extraLoad) != len(st.parts) {
		panic(fmt.Sprintf("rank %d: %d extra-load charges for %d particles", me, len(st.extraLoad), len(st.parts)))
	}
	m := map[int]float64{}
	for i, v := range st.extraLoad {
		if v != 0 {
			m[st.parts[i].ID] = v
		}
	}
	return m
}

// nodeLoads returns the Load of every node under n of st's tree.
func nodeLoads(st *localState, n int32) []int64 {
	return st.tree.Load[n:st.tree.Skip[n]]
}

func newShipEngine(t *testing.T, set *dist.Set, p int, cfg Config) *Engine {
	t.Helper()
	e, err := New(msg.NewMachine(p, msg.CM5()), set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// shipModes are the rows every function-shipping test runs: force mode, and
// potential mode at three degrees (Config reads degree 0 as "the default, 4",
// so the smallest here is 1; degree 0 is swept in internal/tree and
// internal/let).
var shipModes = []struct {
	name   string
	mode   Mode
	degree int
}{{"force", ForceMode, 0}, {"pot1", PotentialMode, 1}, {"pot2", PotentialMode, 2}, {"pot4", PotentialMode, 4}}

// TestFuncShipPacketMatchesPointerOracle is the engine-level contract: on
// the second step of a run (so SPDA and DPDA have rebalanced from the first
// step's packet-charged loads) the force phase must leave exactly what the
// pointer oracle leaves, for every bin size — one entry per message, a
// size that splits key groups, the paper's 100, and never flushing early —
// and every host parallelism.
func TestFuncShipPacketMatchesPointerOracle(t *testing.T) {
	set := dist.MustNamed("g", 1500, 41)
	const p = 8
	for _, m := range shipModes {
		for _, scheme := range []Scheme{SPSA, SPDA, DPDA} {
			cfg := Config{Scheme: scheme, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, GridLog2: 2, LeafCap: 4}
			ref := newShipEngine(t, set, p, cfg)
			ref.Step()
			want := phases(t, ref, false)
			entries := want.runOracle()
			shortTail, leafCells, shipped := false, 0, 0
			for me, st := range want.states {
				shortTail = shortTail || len(st.parts)%8 != 0
				for _, n := range entries[me] {
					shipped += n
				}
				leafCells += countLeafCells(st, st.top)
			}
			if !shortTail || leafCells == 0 || shipped == 0 {
				t.Fatalf("%s/%v: weak case: short last packet %v, remote leaf cells %d, entries %d", m.name, scheme, shortTail, leafCells, shipped)
			}
			for _, binSize := range []int{1, 7, 100, 1 << 20} {
				for _, procs := range []int{1, 2, 7} {
					name := fmt.Sprintf("%v/bin%d/procs%d", scheme, binSize, procs)
					if m.mode == PotentialMode {
						name = fmt.Sprintf("%v/%s/bin%d/procs%d", scheme, m.name, binSize, procs)
					}
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						cfg.BinSize = binSize
						e := newShipEngine(t, set, p, cfg)
						e.Step()
						got := phases(t, e, true)
						compareWorlds(t, want, got)
						words, msgs := protocolVolume(entries, binSize, m.mode)
						if got.words != words || got.msgs != msgs {
							t.Errorf("force phase moved %d words in %d messages, protocol says %d in %d", got.words, got.msgs, words, msgs)
						}
					})
				}
			}
		}
	}
}

// ownRoot returns the root in st.tree of this rank's subtree under branch
// cell n of the shared replicated tree, -1 when the cell is none of its
// own. The other owners of a cell it shares are not asked: its own subtree
// stands for the cell.
func (st *localState) ownRoot(n *pnode) int32 {
	if !slices.Contains(n.owners, st.me) {
		return -1
	}
	root, ok := st.rootsMap[n.cell.Uint64()]
	if !ok {
		panic(fmt.Sprintf("parbh: missing local subtree for branch %v", n.cell))
	}
	return root
}

// countLeafCells counts the remote leaf-cell branches (always shipped, no
// MAC) of a replicated tree.
func countLeafCells(st *localState, n *pnode) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.isBranch && n.leafCell && st.ownRoot(n) < 0 {
		c++
	}
	for _, ch := range n.children {
		c += countLeafCells(st, ch)
	}
	return c
}

// handWorld builds rank states by hand so a branch cell can have what the
// engine's decompositions never produce: two owners. The root's octants
// are the branch cells; octant o belongs to rank o%p, except octant 7,
// whose particles are dealt alternately to ranks 1 and 2, and octant 0,
// which keeps at most LeafCap particles (a leaf-cell branch).
func handWorld(t *testing.T, set *dist.Set, p int, cfg Config) (*Engine, []*localState) {
	t.Helper()
	cfg = cfg.withDefaults()
	domain := set.Domain.Cube()
	owned := make([]map[int][]dist.Particle, p) // rank → octant → particles
	for r := range owned {
		owned[r] = map[int][]dist.Particle{}
	}
	inZero := 0
	for i, q := range set.Particles {
		oct := domain.OctantOf(q.Pos)
		r := oct % p
		switch {
		case oct == 0 && inZero == cfg.LeafCap:
			continue
		case oct == 0:
			inZero++
		case oct == 7 && p > 2:
			r = 1 + i%2
		}
		owned[r][oct] = append(owned[r][oct], q)
	}
	degree := -1
	if cfg.Mode == PotentialMode {
		degree = cfg.Degree
	}
	states := make([]*localState, p)
	var all []BranchSummary
	for r := range states {
		st := &localState{me: r, tree: tree.NewForest(domain, cfg.LeafCap), rootsMap: map[uint64]int32{}}
		for oct := 0; oct < 8; oct++ {
			ps := owned[r][oct]
			if len(ps) == 0 {
				continue
			}
			ck := keys.CellKey{}.Child(oct)
			n := st.tree.AddSubtreeKeyed(ps, ck)
			if degree >= 0 {
				st.tree.BuildExpansionsAt(n, degree)
			}
			st.parts = append(st.parts, ps...)
			st.branches = append(st.branches, n)
			st.rootsMap[ck.Uint64()] = n
			all = append(all, summaryOf(st.tree, n, r, degree >= 0))
		}
		st.lookup = hashLookup(st.rootsMap)
		states[r] = st
	}
	top, _, err := buildTop(domain, all, degree, cfg.LeafCap)
	if err != nil {
		t.Fatal(err)
	}
	flat := flattenTop(top)
	for _, st := range states {
		st.top, st.flat = top, flat
	}
	e := &Engine{cfg: cfg, machine: msg.NewMachine(p, msg.CM5()), domain: domain, n: set.N(),
		ship: make([]shipScratch, p), scratch: make([]rankScratch, p), letFlats: make([]*let.Flat, p)}
	return e, states
}

// TestFuncShipMultiOwnerAndLeafCellBranches drives the force phase over a
// hand-built world with a two-owner branch cell (every other rank ships to
// both owners, in owner order), a leaf-cell branch, and ranks whose
// particle counts leave a short last packet.
func TestFuncShipMultiOwnerAndLeafCellBranches(t *testing.T) {
	set := dist.MustNamed("uniform", 900, 12)
	for _, m := range shipModes {
		cfg := Config{Scheme: SPSA, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, LeafCap: 4}
		for _, binSize := range []int{3, 100} {
			cfg.BinSize = binSize
			want, got, entries, _ := handForcePhase(t, set, 4, cfg)
			if entries[0][1] == 0 || entries[0][2] == 0 || entries[3][1] == 0 || entries[3][2] == 0 {
				t.Fatalf("two-owner cell not shipped to both owners: %v", entries)
			}
			if countLeafCells(want.states[1], want.states[1].top) == 0 {
				t.Fatal("no leaf-cell branch in the world")
			}
			compareWorlds(t, want, got)
		}
	}
}

// handForcePhase runs the pointer oracle over one handWorld and the
// engine's force phase over another built alike, and returns what each
// left, the entries each (requester, owner) pair exchanged, and the
// engine.
func handForcePhase(t *testing.T, set *dist.Set, p int, cfg Config) (want, got *shipWorld, entries [][]int, e *Engine) {
	t.Helper()
	_, oracleStates := handWorld(t, set, p, cfg)
	want = newShipWorld(cfg.withDefaults(), oracleStates, set.N())
	entries = want.runOracle()
	e, states := handWorld(t, set, p, cfg)
	got = newShipWorld(e.cfg, states, set.N())
	res := &Result{Accels: got.accels, Potentials: got.pots}
	if _, err := e.machine.RunErr(func(pr *msg.Proc) { e.forcePhase(pr, states[pr.ID()], res) }); err != nil {
		t.Fatal(err)
	}
	return want, got, entries, e
}

// TestFuncShipInterleavedOwnersFoldInSlotOrder holds the requester's fold
// to slot order when a particle's slots alternate between owners. In
// handWorld on four ranks, octants 1 and 5 belong to rank 1 and octant 2
// to rank 2, so a rank-0 particle that opens all three ships to owners
// 1, 2, 1 — and each owner's reply holds that particle's values
// contiguously. Adding them owner by owner instead of slot by slot rounds
// differently, and the accelerations and potentials must be the oracle's
// to the bit.
func TestFuncShipInterleavedOwnersFoldInSlotOrder(t *testing.T) {
	set := dist.MustNamed("uniform", 900, 12)
	for _, m := range shipModes {
		cfg := Config{Scheme: SPSA, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, LeafCap: 4}
		want, got, _, e := handForcePhase(t, set, 4, cfg)
		if interleavedParticles(&e.ship[0].log) == 0 {
			t.Fatalf("%s: no rank-0 particle ships to one owner, then another, then the first again", m.name)
		}
		compareWorlds(t, want, got)
	}
}

// interleavedParticles counts the particles of log whose slots go to some
// owner A, then another owner, then A again.
func interleavedParticles(log *shipLog) int {
	n, owners := 0, log.Owners
	for _, ships := range log.Ships {
		slots := owners[:ships]
		owners = owners[ships:]
		for i, a := range slots {
			if j := slices.IndexFunc(slots[i+1:], func(o uint16) bool { return o != a }); j >= 0 &&
				slices.Contains(slots[i+1+j:], a) {
				n++
				break
			}
		}
	}
	return n
}

// TestFuncShipServeGroupsAndEmptyBranch calls the owner-side service
// directly with one bin whose entries — interleaved, as a requester's
// particles interleave them, one to four of them a particle — form branch
// groups of 1, 8 and 9 (a lone lane, exactly one full packet, a full packet
// plus one), plus requests for a branch this rank does not own and for
// ordinals that name no branch at all (one past the last, and the largest
// a request read off the wire can carry), into a reply buffer full of
// stale values. The oracle resolves each entry by its cell's key.
func TestFuncShipServeGroupsAndEmptyBranch(t *testing.T) {
	set := dist.MustNamed("uniform", 600, 5)
	for _, m := range shipModes {
		cfg := Config{Scheme: SPSA, Mode: m.mode, Degree: m.degree, Alpha: 0.67, Eps: 0.01, LeafCap: 4}
		e, states := handWorld(t, set, 2, cfg)
		_, oracleStates := handWorld(t, set, 2, cfg)
		st, ost := states[0], oracleStates[0]
		if len(st.branches) < 3 {
			t.Fatalf("only %d branches", len(st.branches))
		}
		type entry struct {
			key uint64
			q   dist.Particle
		}
		var entries []entry
		var bin reqBin
		add := func(key, ord uint64, i int) {
			q := set.Particles[(37*i+11)%set.N()]
			entries = append(entries, entry{key, q})
			if last := len(bin.Parts) - 1; last < 0 || bin.Parts[last].Self != int32(q.ID) {
				bin.Parts = append(bin.Parts, reqPart{Pos: q.Pos, Self: int32(q.ID)})
			}
			bin.Parts[len(bin.Parts)-1].N++
			bin.Branches = append(bin.Branches, ord)
		}
		branch := func(st *localState, i int) (key, ord uint64) {
			key = st.tree.Key[st.branches[i]]
			b, ok := st.flat.ordOf[key]
			if !ok {
				t.Fatalf("rank %d's branch %x has no ordinal", st.me, key)
			}
			return key, uint64(b)
		}
		const missing = ^uint64(0) // no cell's key
		ka, oa := branch(st, 0)
		kb, ob := branch(st, 1)
		kc, oc := branch(st, 2)
		kr, or := branch(states[1], 0) // rank 1's
		past := uint64(len(st.flat.keys))
		for i := 0; i < 9; i++ {
			add(kc, oc, i)
			if i < 8 {
				add(kb, ob, i)
			}
			if i == 4 {
				add(ka, oa, i)
				add(kr, or, i)
				add(missing, past, i)
			}
		}
		add(missing, ^uint64(0), 301)
		if len(bin.Parts) != 10 {
			t.Fatalf("%d request particles, want 10", len(bin.Parts))
		}

		pot := m.mode == PotentialMode
		var rep repBin
		if pot {
			rep.P = make([]float64, len(entries))
			for i := range rep.P {
				rep.P[i] = math.NaN()
			}
		} else {
			rep.F = make([]vec.V3, len(entries))
			for i := range rep.F {
				rep.F[i] = vec.V3{X: math.NaN(), Y: 1e300, Z: -7}
			}
		}
		r := &shipRun{e: e, st: st, sh: &e.ship[0]}
		r.flatten()
		r.servePackets(bin, &rep)
		var charged float64
		for _, c := range r.sh.flops[:len(entries)] {
			charged += c
		}
		r.fl.Release()

		var wantFlops float64
		for i, en := range entries {
			wantFlops += ost.lookup.cost()
			var want, got vec.V3 // a potential rides in X
			var s tree.Stats
			switch node := ost.lookup.find(en.key); {
			case node < 0:
			case pot:
				want.X = servePot(ost.tree, node, en.q.Pos, en.q.ID, e.cfg.Alpha, &s)
			default:
				want = serveForce(ost.tree, node, en.q.Pos, en.q.ID, e.cfg.Alpha, e.cfg.Eps, &s)
			}
			ost.stats.Add(s)
			wantFlops += s.Flops(e.cfg.degreeOrMonopole())
			if pot {
				got.X = rep.P[i]
			} else {
				got = rep.F[i]
			}
			if !bitsEqual(got, want) {
				t.Fatalf("%s: entry %d (key %x): reply %v, oracle %v", m.name, i, en.key, got, want)
			}
		}
		if st.stats != ost.stats || charged != wantFlops {
			t.Errorf("%s: stats %+v flops %v, oracle %+v flops %v", m.name, st.stats, charged, ost.stats, wantFlops)
		}
		for b := range ost.branches {
			wl, gl := nodeLoads(ost, ost.branches[b]), nodeLoads(st, st.branches[b])
			for j := range wl {
				if gl[j] != wl[j] {
					t.Fatalf("%s: branch %d node %d: load %d, oracle %d", m.name, b, j, gl[j], wl[j])
				}
			}
		}
	}
}
