package cluster

import (
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/transport"
)

// testJob is the fixture shared by the cross-transport golden tests:
// small enough to run in CI, large enough that every protocol (branch
// exchange, shipping, load balance) carries real traffic.
func testJob(cfg parbh.Config, steps int) (Job, *dist.Set) {
	s := dist.MustNamed("g", 1200, 99)
	return Job{
		Name:    "golden",
		Ranks:   8,
		Steps:   steps,
		Profile: msg.CM5(),
		Config:  cfg,
		Domain:  s.Domain,
		Parts:   s.Particles,
	}, s
}

// inprocResults runs the same job on the classic single-process machine.
func inprocResults(t *testing.T, job Job) []*parbh.Result {
	t.Helper()
	machine := msg.NewMachine(job.Ranks, job.Profile)
	set := &dist.Set{Particles: job.Parts, Domain: job.Domain}
	eng, err := parbh.New(machine, set, job.Config)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*parbh.Result, job.Steps)
	for i := range out {
		out[i] = eng.Step()
	}
	return out
}

// meshResults runs the job across procs in-memory transport nodes, all
// payloads passing through the codec exactly as TCP would send them.
func meshResults(t *testing.T, job Job, procs int) []*parbh.Result {
	t.Helper()
	return linkResults(t, job, mesh(t, procs, nil), nil)
}

// mesh builds a procs-process in-memory machine whose procs carry plans
// (nil: none), closed when the test ends.
func mesh(t *testing.T, procs int, plans []transport.FaultPlan) []*transport.Node {
	nodes := transport.NewMesh(procs, plans)
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// linkResults runs the job on the nodes of a mesh, each wrapped by wrap
// when it is not nil.
func linkResults(t *testing.T, job Job, nodes []*transport.Node, wrap func(proc int, node *transport.Node) transport.Link) []*parbh.Result {
	t.Helper()
	procs := len(nodes)
	links := make([]transport.Link, procs)
	for i, n := range nodes {
		links[i] = n
		if wrap != nil {
			links[i] = wrap(i, n)
		}
	}
	var wg sync.WaitGroup
	for p := 1; p < procs; p++ {
		wg.Add(1)
		go func(link transport.Link) {
			defer wg.Done()
			if err := Serve(link, nil); err != nil {
				t.Error(err)
			}
		}(links[p])
	}
	coord, err := NewCoordinator(links[0])
	if err != nil {
		t.Fatal(err)
	}
	var out []*parbh.Result
	if _, err = coord.Run(job, func(step int, res *parbh.Result) bool {
		out = append(out, res)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return out
}

// compareBitIdentical asserts the distributed result carries exactly
// the in-proc simulated metrics, the simulated clock included, whatever
// the shipping strategy: function shipping's polls are answered on the
// ordered machine every process replays from the same logs.
func compareBitIdentical(t *testing.T, want, got *parbh.Result, step int) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("step %d: interaction stats = %+v, want %+v", step, got.Stats, want.Stats)
	}
	if got.CommWords != want.CommWords {
		t.Errorf("step %d: comm words = %d, want %d", step, got.CommWords, want.CommWords)
	}
	if got.CommMessages != want.CommMessages {
		t.Errorf("step %d: comm messages = %d, want %d", step, got.CommMessages, want.CommMessages)
	}
	if got.BranchNodes != want.BranchNodes {
		t.Errorf("step %d: branch nodes = %d, want %d", step, got.BranchNodes, want.BranchNodes)
	}
	if got.SimTime != want.SimTime {
		t.Errorf("step %d: simulated time = %.17g, want %.17g", step, got.SimTime, want.SimTime)
	}
	if got.Imbalance != want.Imbalance {
		t.Errorf("step %d: imbalance = %.17g, want %.17g", step, got.Imbalance, want.Imbalance)
	}
	for r := range want.ProcStats {
		if got.ProcStats[r] != want.ProcStats[r] {
			t.Errorf("step %d: rank %d stats = %+v, want %+v", step, r, got.ProcStats[r], want.ProcStats[r])
		}
	}
	if len(got.Accels) != len(want.Accels) {
		t.Fatalf("step %d: %d accels, want %d", step, len(got.Accels), len(want.Accels))
	}
	bad := 0
	for i := range want.Accels {
		if got.Accels[i] != want.Accels[i] {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("step %d: %d/%d accelerations differ from in-proc run", step, bad, len(want.Accels))
	}
}

// TestCrossTransportGoldenDPDADataShipping pins the full two-clock
// guarantee: a DPDA data-shipping job split across processes yields
// bit-identical simulated time, interaction stats, comm volumes, and
// accelerations to the in-proc run.
func TestCrossTransportGoldenDPDADataShipping(t *testing.T) {
	cfg := parbh.Config{
		Scheme:   parbh.DPDA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.DataShipping,
		Alpha:    0.67,
		Eps:      0.01,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	for _, procs := range []int{2, 3} {
		got := meshResults(t, job, procs)
		if len(got) != len(want) {
			t.Fatalf("procs=%d: %d steps, want %d", procs, len(got), len(want))
		}
		for i := range want {
			compareBitIdentical(t, want[i], got[i], i)
		}
	}
}

// TestCrossTransportGoldenDPDAFunctionShipping pins the
// function-shipping path the same way, on two and on three processes.
func TestCrossTransportGoldenDPDAFunctionShipping(t *testing.T) {
	cfg := parbh.Config{
		Scheme: parbh.DPDA,
		Mode:   parbh.ForceMode,
		Alpha:  0.67,
		Eps:    0.01,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	for _, procs := range []int{2, 3} {
		got := meshResults(t, job, procs)
		if len(got) != len(want) {
			t.Fatalf("procs=%d: %d steps, want %d", procs, len(got), len(want))
		}
		for i := range want {
			compareBitIdentical(t, want[i], got[i], i)
		}
	}
}

// TestCrossTransportGoldenSPSA covers the static scheme including the
// broadcast tree build.
func TestCrossTransportGoldenSPSA(t *testing.T) {
	cfg := parbh.Config{
		Scheme:   parbh.SPSA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.DataShipping,
		Alpha:    0.67,
		Eps:      0.01,
		GridLog2: 2,
	}
	job, _ := testJob(cfg, 1)
	want := inprocResults(t, job)
	got := meshResults(t, job, 2)
	compareBitIdentical(t, want[0], got[0], 0)
}

// TestCrossTransportGoldenSPDA covers the dynamic-assignment scheme
// with the non-replicated tree build (tagBranchUp protocol on the
// wire) and potential mode (expansion payloads).
func TestCrossTransportGoldenSPDA(t *testing.T) {
	cfg := parbh.Config{
		Scheme:    parbh.SPDA,
		Mode:      parbh.PotentialMode,
		Shipping:  parbh.DataShipping,
		Alpha:     0.67,
		Degree:    2,
		GridLog2:  2,
		TreeBuild: parbh.NonReplicatedBuild,
	}
	job, _ := testJob(cfg, 2)
	want := inprocResults(t, job)
	got := meshResults(t, job, 2)
	for i := range want {
		if got[i].Stats != want[i].Stats {
			t.Errorf("step %d: interaction stats = %+v, want %+v", i, got[i].Stats, want[i].Stats)
		}
		if got[i].CommWords != want[i].CommWords {
			t.Errorf("step %d: comm words = %d, want %d", i, got[i].CommWords, want[i].CommWords)
		}
		if got[i].SimTime != want[i].SimTime {
			t.Errorf("step %d: simulated time = %.17g, want %.17g", i, got[i].SimTime, want[i].SimTime)
		}
		for j := range want[i].Potentials {
			if got[i].Potentials[j] != want[i].Potentials[j] {
				t.Errorf("step %d: potential %d = %g, want %g", i, j, got[i].Potentials[j], want[i].Potentials[j])
				break
			}
		}
	}
}

// TestAssignRanks pins the block partition: contiguous, exhaustive,
// proc 0 owns rank 0.
func TestAssignRanks(t *testing.T) {
	owner, err := assignRanks(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
	if _, err := assignRanks(2, 3); err == nil {
		t.Fatal("expected error for more procs than ranks")
	}
}
