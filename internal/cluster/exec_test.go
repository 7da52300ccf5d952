package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/parbh"
)

// TestMultiProcessExecGolden is the end-to-end acceptance test: the
// real nbody and nbodyworker binaries split a DPDA job across three OS
// processes over loopback TCP, and the GOLDEN line the coordinator
// prints carries exactly the simulated metrics of the in-proc run
// computed here in-test. This is the cross-transport golden with
// nothing shared — no memory, no scheduler, only sockets.
func TestMultiProcessExecGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real binaries")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	tmp := t.TempDir()
	nbody := filepath.Join(tmp, "nbody")
	worker := filepath.Join(tmp, "nbodyworker")
	for bin, pkg := range map[string]string{nbody: "./cmd/nbody", worker: "./cmd/nbodyworker"} {
		cmd := exec.Command(goBin, "build", "-o", bin, pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// Reserve a loopback port for the coordinator; workers dial it with
	// a generous retry budget, so launch order doesn't matter.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var workers []*exec.Cmd
	var workerOut []*bytes.Buffer
	for i := 0; i < 2; i++ {
		cmd := exec.CommandContext(ctx, worker, "-join", addr, "-dial-retries", "40", "-q")
		buf := &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = buf, buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, cmd)
		workerOut = append(workerOut, buf)
	}
	coord := exec.CommandContext(ctx, nbody,
		"-transport", "tcp", "-transport-listen", addr, "-transport-workers", "2",
		"-dist", "g", "-n", "1200", "-seed", "99", "-p", "8",
		"-scheme", "dpda", "-shipping", "function", "-steps", "2",
		"-machine", "cm5", "-alpha", "0.67", "-eps", "0.01")
	out, err := coord.CombinedOutput()
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, out)
	}
	for i, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d: %v\n%s", i, err, workerOut[i].String())
		}
	}

	var golden string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "GOLDEN ") {
			golden = sc.Text()
		}
	}
	if golden == "" {
		t.Fatalf("no GOLDEN line in coordinator output:\n%s", out)
	}
	var simtime float64
	var mac, pc, pp, words, msgs int64
	if _, err := fmt.Sscanf(golden, "GOLDEN simtime=%g mac=%d pc=%d pp=%d words=%d msgs=%d",
		&simtime, &mac, &pc, &pp, &words, &msgs); err != nil {
		t.Fatalf("parsing %q: %v", golden, err)
	}

	// The in-proc reference, configured exactly as the CLI flags above
	// configure the coordinator (including flag defaults the DPDA data
	// path ignores, for faithfulness).
	cfg := parbh.Config{
		Scheme:   parbh.DPDA,
		Mode:     parbh.ForceMode,
		Shipping: parbh.FunctionShipping,
		Alpha:    0.67,
		Degree:   4,
		Eps:      0.01,
		GridLog2: 3,
		BinSize:  100,
	}
	job, _ := testJob(cfg, 2)
	ref := inprocResults(t, job)
	want := ref[len(ref)-1]
	// %.17g round-trips float64 exactly, so this is a bit comparison.
	if simtime != want.SimTime {
		t.Errorf("simtime = %.17g, want %.17g", simtime, want.SimTime)
	}
	if mac != want.Stats.MACTests || pc != want.Stats.PC || pp != want.Stats.PP {
		t.Errorf("interactions = mac %d pc %d pp %d, want mac %d pc %d pp %d",
			mac, pc, pp, want.Stats.MACTests, want.Stats.PC, want.Stats.PP)
	}
	if words != want.CommWords || msgs != want.CommMessages {
		t.Errorf("comm = %d words %d msgs, want %d words %d msgs",
			words, msgs, want.CommWords, want.CommMessages)
	}
}
