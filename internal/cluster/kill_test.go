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

	"repro/internal/dist"
	"repro/internal/msg"
	"repro/internal/parbh"
)

// TestWorkerSIGKILLRecoveryGolden is the process-level fault drill: a
// real nbodyworker process is SIGKILLed mid-job, a replacement dials
// in, and the supervised coordinator finishes the run with a GOLDEN
// line bit-identical to the in-proc reference. No step is reported
// twice — resume replays silently — and the coordinator process never
// dies, it recovers.
func TestWorkerSIGKILLRecoveryGolden(t *testing.T) {
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

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	startWorker := func() *exec.Cmd {
		cmd := exec.CommandContext(ctx, worker, "-join", addr, "-dial-retries", "60", "-q")
		cmd.Stdout, cmd.Stderr = nil, nil
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	victim := startWorker()

	const steps = 4
	coord := exec.CommandContext(ctx, nbody,
		"-transport", "tcp", "-transport-listen", addr, "-transport-workers", "1",
		"-transport-retries", "3",
		"-dist", "g", "-n", "4000", "-seed", "99", "-p", "8",
		"-scheme", "dpda", "-shipping", "function", "-steps", fmt.Sprint(steps),
		"-machine", "cm5", "-alpha", "0.67", "-eps", "0.01")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	coord.Stderr = &stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}

	// Scan the coordinator's live output: the moment the first step
	// reports, SIGKILL the worker and launch its replacement. The kill
	// lands while later steps are in flight, so the coordinator sees the
	// connection die mid-computation.
	var lines []string
	var replacement *exec.Cmd
	killed := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if !killed && strings.HasPrefix(line, "step  1:") {
			killed = true
			if err := victim.Process.Kill(); err != nil {
				t.Fatalf("kill worker: %v", err)
			}
			victim.Wait() // reap; a kill error is the point
			replacement = startWorker()
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\nstdout:\n%s\nstderr:\n%s",
			err, strings.Join(lines, "\n"), stderr.String())
	}
	if !killed {
		t.Fatalf("job finished before the kill landed; output:\n%s", strings.Join(lines, "\n"))
	}
	if replacement != nil {
		if err := replacement.Wait(); err != nil {
			t.Errorf("replacement worker: %v", err)
		}
	}

	if !strings.Contains(stderr.String(), "recovering from") {
		t.Errorf("coordinator never logged a recovery:\n%s", stderr.String())
	}
	var golden string
	stepSeen := make(map[string]int)
	for _, line := range lines {
		if strings.HasPrefix(line, "GOLDEN ") {
			golden = line
		}
		if strings.HasPrefix(line, "step ") {
			key := strings.SplitN(line, ":", 2)[0]
			stepSeen[key]++
		}
	}
	for key, n := range stepSeen {
		if n != 1 {
			t.Errorf("%q reported %d times; replay must be silent", key, n)
		}
	}
	if len(stepSeen) != steps {
		t.Errorf("saw %d distinct steps, want %d", len(stepSeen), steps)
	}
	if golden == "" {
		t.Fatalf("no GOLDEN line:\n%s", strings.Join(lines, "\n"))
	}

	var simtime float64
	var mac, pc, pp, words, msgs int64
	if _, err := fmt.Sscanf(golden, "GOLDEN simtime=%g mac=%d pc=%d pp=%d words=%d msgs=%d",
		&simtime, &mac, &pc, &pp, &words, &msgs); err != nil {
		t.Fatalf("parsing %q: %v", golden, err)
	}
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
	set := dist.MustNamed("g", 4000, 99)
	job := Job{
		Name:    "kill",
		Ranks:   8,
		Steps:   steps,
		Profile: msg.CM5(),
		Config:  cfg,
		Domain:  set.Domain,
		Parts:   set.Particles,
	}
	ref := inprocResults(t, job)
	want := ref[len(ref)-1]
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
