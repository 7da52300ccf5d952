package barneshut_test

// The checks that run the module's commands as OS processes: the
// multi-process goldens, the fleet, gateway and frame-store drills, and
// the gates on the committed BENCH tables. CI runs every one of them as
// a go test line; TestCIRunPatterns keeps those lines' -run patterns
// honest.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	barneshut "repro"
	"repro/internal/experiments"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/service"
)

// slowEnv turns on the drills and the LET table gate, which take from
// half a minute to minutes each. CI's drills job sets it.
const slowEnv = "REPRO_SLOW"

// slow skips the test unless slowEnv is set.
func slow(t *testing.T) {
	t.Helper()
	if os.Getenv(slowEnv) == "" {
		t.Skipf("slow: set %s=1 to run it", slowEnv)
	}
}

// built holds the commands built by this test process, one binary per
// command and build mode.
var built struct {
	sync.Mutex
	dir  string // removed by TestMain
	bins map[string]string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// proc is one of the module's commands running as its own OS process.
type proc struct {
	cmd  *exec.Cmd
	out  syncBuffer    // stdout and stderr
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, set before done closes
}

// start runs cmd/<name> with args, built once per test process (with
// -race when race is set). The test's cleanup kills the process and
// waits for it, and logs its output if the test failed.
func start(t *testing.T, name string, race bool, args ...string) *proc {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and launches the module's commands")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	built.Lock()
	key, flags := name, []string{"build"}
	if race {
		key, flags = name+"-race", append(flags, "-race")
	}
	bin, ok := built.bins[key]
	if !ok {
		if built.dir == "" {
			if built.dir, err = os.MkdirTemp("", "repro-cmd"); err != nil {
				built.Unlock()
				t.Fatal(err)
			}
			built.bins = make(map[string]string)
		}
		bin = filepath.Join(built.dir, key)
		if out, err := exec.Command(goBin, append(flags, "-o", bin, "./cmd/"+name)...).CombinedOutput(); err != nil {
			built.Unlock()
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
		built.bins[key] = bin
	}
	built.Unlock()

	p := &proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("%s %s:\n%s", name, strings.Join(args, " "), p.out.String())
		}
	})
	return p
}

// wait returns the process's exit status, failing the test if it is
// still running after d.
func (p *proc) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(d):
		t.Fatalf("%s still running after %v", filepath.Base(p.cmd.Path), d)
		return nil
	}
}

// signal sends sig to the process and waits for it to exit.
func (p *proc) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	p.wait(t, time.Minute)
}

// syncBuffer is a bytes.Buffer a process writes while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds, failing the test after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(d); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("gave up after %v waiting for %s", d, what)
		}
	}
}

// freeAddr reserves a loopback port and frees it for a process to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

var client = &http.Client{Timeout: 5 * time.Second}

// getJSON decodes the body of GET url into v and reports whether the
// server answered 200 with JSON; a process that is down or starting
// answers false.
func getJSON(url string, v any) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(v) == nil
}

// golden returns the key=value fields of the last GOLDEN line in out,
// and the line itself.
func golden(t *testing.T, out string) (map[string]string, string) {
	t.Helper()
	var line string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "GOLDEN ") {
			line = sc.Text()
		}
	}
	if line == "" {
		t.Fatal("no GOLDEN line in the output")
	}
	fields := make(map[string]string)
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			fields[k] = v
		}
	}
	return fields, line
}

// inprocGolden is the GOLDEN line `nbody -transport tcp -dist g -seed 99
// -scheme dpda -machine cm5 -alpha 0.67 -eps 0.01` prints after steps
// steps, computed on the single-process machine.
func inprocGolden(t *testing.T, shipping string, n, p, steps int) string {
	t.Helper()
	set, err := barneshut.NewNamed("g", n, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := barneshut.Config{Scheme: barneshut.DPDA, Alpha: 0.67, Degree: 4, Eps: 0.01, GridLog2: 3, BinSize: 100}
	if cfg.Shipping, err = barneshut.ParseShipping(shipping); err != nil {
		t.Fatal(err)
	}
	eng, err := parbh.New(msg.NewMachine(p, barneshut.CM5()), set, cfg.Engine())
	if err != nil {
		t.Fatal(err)
	}
	var r *parbh.Result
	for i := 0; i < steps; i++ {
		r = eng.Step()
	}
	return fmt.Sprintf("GOLDEN simtime=%.17g mac=%d pc=%d pp=%d words=%d msgs=%d",
		r.SimTime, r.Stats.MACTests, r.Stats.PC, r.Stats.PP, r.CommWords, r.CommMessages)
}

// tcpJob is nbody's command line for a DPDA job over loopback TCP whose
// coordinator listens on addr and waits for workers nbodyworkers.
func tcpJob(addr string, workers int, shipping string, n, p, steps int) []string {
	return []string{
		"-transport", "tcp", "-transport-listen", addr, "-transport-workers", strconv.Itoa(workers),
		"-dist", "g", "-n", strconv.Itoa(n), "-seed", "99", "-p", strconv.Itoa(p),
		"-scheme", "dpda", "-shipping", shipping, "-steps", strconv.Itoa(steps),
		"-machine", "cm5", "-alpha", "0.67", "-eps", "0.01",
	}
}

// TestMultiProcessExecGolden splits a DPDA job across OS processes over
// loopback TCP, with nothing shared but sockets, and requires the GOLDEN
// line the coordinator prints to be the in-process run's, byte for byte.
// Each strategy runs on 2 and on 3 processes, so its 8 ranks split two
// ways, and both must give the one in-process line. The traced row also
// requires the capture to be a Chrome trace with complete spans, message
// instants and thread names.
func TestMultiProcessExecGolden(t *testing.T) {
	rows := []struct {
		shipping      string
		n, p, workers int
		trace         bool
	}{
		{"function", 1200, 8, 1, false},
		{"function", 1200, 8, 2, false},
		{"let", 1200, 8, 1, false},
		{"let", 1200, 8, 2, false},
		{"data", 900, 3, 2, true},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/%dprocs", r.shipping, r.workers+1), func(t *testing.T) {
			addr := freeAddr(t)
			args := tcpJob(addr, r.workers, r.shipping, r.n, r.p, 2)
			var trace string
			if r.trace {
				trace = filepath.Join(t.TempDir(), "trace.json")
				args = append(args, "-trace", trace)
			}
			var workers []*proc
			for i := 0; i < r.workers; i++ {
				workers = append(workers, start(t, "nbodyworker", false, "-join", addr, "-dial-retries", "40", "-q"))
			}
			coord := start(t, "nbody", false, args...)
			if err := coord.wait(t, 3*time.Minute); err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			for i, w := range workers {
				if err := w.wait(t, time.Minute); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			_, got := golden(t, coord.out.String())
			if want := inprocGolden(t, r.shipping, r.n, r.p, 2); got != want {
				t.Errorf("over %d processes:\n%s\nin process:\n%s", r.workers+1, got, want)
			}
			if r.trace {
				checkTrace(t, trace)
			}
		})
	}
}

// checkTrace requires the Chrome trace at path to hold complete (X)
// spans, instant (i) events and thread_name metadata (M) events.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct{ Ph, Name string }
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	seen := make(map[string]bool)
	for _, e := range tr.TraceEvents {
		seen[e.Ph] = true
		if e.Ph == "M" && e.Name == "thread_name" {
			seen["thread_name"] = true
		}
	}
	for _, want := range []string{"X", "i", "thread_name"} {
		if !seen[want] {
			t.Errorf("trace of %d events has no %s event", len(tr.TraceEvents), want)
		}
	}
}

// TestWorkerSIGKILLRecoveryGolden is the process-level fault drill: a
// real nbodyworker is SIGKILLed mid-job, a replacement dials in, and the
// supervised coordinator finishes the run with the in-process GOLDEN
// line. No step is reported twice (resume replays silently), and the
// coordinator process never dies, it recovers.
func TestWorkerSIGKILLRecoveryGolden(t *testing.T) {
	const steps = 4
	addr := freeAddr(t)
	worker := func() *proc {
		return start(t, "nbodyworker", false, "-join", addr, "-dial-retries", "60", "-q")
	}
	victim := worker()
	coord := start(t, "nbody", false, append(tcpJob(addr, 1, "function", 4000, 8, steps), "-transport-retries", "3")...)
	// The kill lands once the first step has reported, while later steps
	// are in flight, so the coordinator sees the connection die
	// mid-computation.
	waitFor(t, 3*time.Minute, "step 1", func() bool { return strings.Contains(coord.out.String(), "step  1:") })
	victim.signal(t, syscall.SIGKILL)
	select {
	case <-coord.done:
		t.Fatal("job finished before the kill landed")
	default:
	}
	replacement := worker()
	if err := coord.wait(t, 4*time.Minute); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := replacement.wait(t, time.Minute); err != nil {
		t.Errorf("replacement worker: %v", err)
	}

	out := coord.out.String()
	if !strings.Contains(out, "recovering from") {
		t.Error("coordinator never logged a recovery")
	}
	seen := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "step ") {
			seen[strings.SplitN(line, ":", 2)[0]]++
		}
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("%q reported %d times; replay must be silent", key, n)
		}
	}
	if len(seen) != steps {
		t.Errorf("saw %d distinct steps, want %d", len(seen), steps)
	}
	_, got := golden(t, out)
	if want := inprocGolden(t, "function", 4000, 8, steps); got != want {
		t.Errorf("after recovery:\n%s\nin process:\n%s", got, want)
	}
}

// startFleet starts a gateway with gwArgs (race-built when race is set)
// and shards nbodyd shards that register with it, each with its own
// spool directory under spool when spool is set, and waits until every
// shard has registered. It returns the gateway's HTTP address and the
// shards' processes and HTTP addresses.
func startFleet(t *testing.T, race bool, gwArgs []string, shards int, spool string) (*proc, string, []*proc, []string) {
	t.Helper()
	gwAddr, ctl := freeAddr(t), freeAddr(t)
	gwArgs = append([]string{"-addr", gwAddr, "-control", ctl}, gwArgs...)
	gw := start(t, "nbodygw", race, gwArgs...)
	var procs []*proc
	var addrs []string
	for i := 1; i <= shards; i++ {
		addr := freeAddr(t)
		args := []string{"-addr", addr, "-gateway", ctl, "-shard-name", fmt.Sprint("s", i), "-workers", "2"}
		if spool != "" {
			args = append(args, "-spool", filepath.Join(spool, fmt.Sprint("spool", i)))
		}
		procs, addrs = append(procs, start(t, "nbodyd", false, args...)), append(addrs, addr)
	}
	waitFor(t, time.Minute, "the shards to register", func() bool {
		var h struct{ Shards int }
		return getJSON("http://"+gwAddr+"/healthz", &h) && h.Shards == shards
	})
	return gw, gwAddr, procs, addrs
}

// gwJob is a job of the gateway's job list.
type gwJob struct {
	State, Shard string
	Progress     struct{ Step int }
}

// gatewayJobs is the gateway's job list; empty while it is down.
func gatewayJobs(gwAddr string) []gwJob {
	var jobs []gwJob
	getJSON("http://"+gwAddr+"/api/v1/jobs", &jobs)
	return jobs
}

// requireGolden requires each key of want to have its value in the
// GOLDEN fields; a want value ">=1" means a positive count.
func requireGolden(t *testing.T, out string, want map[string]string) {
	t.Helper()
	got, line := golden(t, out)
	for k, v := range want {
		if n, err := strconv.Atoi(got[k]); v == ">=1" && err == nil && n >= 1 {
			continue
		}
		if got[k] != v {
			t.Errorf("%s: %s=%s, want %s", line, k, got[k], v)
		}
	}
}

// TestFleetShardKillDrill runs the fleet across OS processes: a gateway
// and three nbodyd shards, nbodyload driving 60 jobs from 3 tenants, and
// a shard SIGKILLed while one of its jobs runs. The GOLDEN line must
// report no accepted job lost to the kill, gateway-routed physics
// bit-equal to a direct in-process run, and the repeat submission served
// from the result cache.
func TestFleetShardKillDrill(t *testing.T) {
	slow(t)
	_, gwAddr, shards, _ := startFleet(t, false, []string{"-lease-ttl", "3s"}, 3, "")
	load := start(t, "nbodyload", false, "-gateway", "http://"+gwAddr,
		"-jobs", "60", "-unique", "30", "-concurrency", "12", "-steps", "40", "-n", "256")
	waitFor(t, 2*time.Minute, "a job running on s2", func() bool {
		for _, j := range gatewayJobs(gwAddr) {
			if j.Shard == "s2" && j.State == "running" {
				return true
			}
		}
		return false
	})
	shards[1].signal(t, syscall.SIGKILL)
	if err := load.wait(t, 5*time.Minute); err != nil {
		t.Errorf("nbodyload: %v", err)
	}
	requireGolden(t, load.out.String(), map[string]string{"lost": "0", "match": "true", "cached": "true"})
}

// TestGatewaySIGKILLDrill is the gateway crash drill across OS processes
// (DESIGN.md §14): a race-built journaled gateway and three spooled
// nbodyd shards, nbodyload driving jobs of graduated lengths, the
// gateway SIGKILLed while jobs run and restarted on the same journal
// once a shard has parked a result the dead gateway missed. The GOLDEN
// line must report no job lost, journaled leases adopted in place,
// results parked during the outage delivered, and physics bit-equal to a
// direct run. The shards are not race-built: the detector slows the
// n-body compute about tenfold and the job lengths are tuned to real
// speed.
func TestGatewaySIGKILLDrill(t *testing.T) {
	slow(t)
	dir := t.TempDir()
	gwArgs := []string{"-journal", filepath.Join(dir, "gw.journal"), "-reconcile-window", "15s", "-lease-ttl", "5s"}
	gw, gwAddr, _, shards := startFleet(t, true, gwArgs, 3, dir)
	load := start(t, "nbodyload", false, "-mode", "gwha", "-gateway", "http://"+gwAddr,
		"-jobs", "12", "-n", "96", "-gwha-min-steps", "300", "-gwha-step-stride", "700", "-timeout", "5m")
	// The kill and the restart follow the jobs, not the clock: on a fast
	// host every job can finish inside any fixed wait.
	waitFor(t, 2*time.Minute, "a job past step 0 while another runs", func() bool {
		past, running := false, false
		for _, j := range gatewayJobs(gwAddr) {
			past = past || j.Progress.Step > 0
			running = running || j.State == "running"
		}
		return past && running
	})
	gw.signal(t, syscall.SIGKILL)
	waitFor(t, 2*time.Minute, "a shard to park a result", func() bool {
		for _, addr := range shards {
			if metric("http://"+addr+"/metrics", "nbodyd_results_parked_total") >= 1 {
				return true
			}
		}
		return false
	})
	start(t, "nbodygw", true, gw.cmd.Args[1:]...)
	if err := load.wait(t, 6*time.Minute); err != nil {
		t.Errorf("nbodyload: %v", err)
	}
	requireGolden(t, load.out.String(), map[string]string{"lost": "0", "match": "true", "adopted": ">=1", "parked": ">=1"})
}

// metric reads an unlabeled sample from the Prometheus text at url; -1
// when the server or the sample is missing.
func metric(url, name string) float64 {
	resp, err := client.Get(url)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestFramesRestartDrill kills a real nbodyd mid-job and restarts it on
// the same spool. A job's frame chain is its only checkpoint, so the
// restarted daemon must resume the job from the chain (resumed_from ≥ 1)
// and finish it. After a SIGKILL the replay API must serve the chain
// back; after a SIGTERM of a potential-mode job, whose chain holds
// header-only frames, the chain must exist and no per-job resume file
// beside it.
func TestFramesRestartDrill(t *testing.T) {
	slow(t)
	// n=2000 keeps a job running for seconds: at n=200 the 300 steps take
	// ~0.2 s and finish between two polls.
	t.Run("sigkill", func(t *testing.T) {
		spool := t.TempDir()
		d, addr := startDaemon(t, spool)
		id := submit(t, addr, `{"dist":"plummer","n":2000,"processors":2,"scheme":"spsa","machine":"ideal","steps":300,"eps":0.05,"dt":0.01,"seed":7}`)
		waitFor(t, 2*time.Minute, "step 20", func() bool { return jobStatus(addr, id).Progress.Step >= 20 })
		if _, err := os.Stat(filepath.Join(spool, id, "checkpoint.gob")); !os.IsNotExist(err) {
			t.Errorf("spool holds a checkpoint.gob (stat: %v)", err)
		}
		d.signal(t, syscall.SIGKILL)
		_, addr = startDaemon(t, spool)
		waitResumed(t, addr, id, 150*time.Second)
		// The replay API serves the chain: every tenth step's metadata.
		resp, err := client.Get("http://" + addr + "/api/v1/jobs/" + id + "/frames?from=0&stride=10&fields=meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		lines := 0
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			lines++
		}
		if lines < 30 {
			t.Errorf("replay served %d lines, want at least 30", lines)
		}
	})
	t.Run("sigterm-potential", func(t *testing.T) {
		spool := t.TempDir()
		d, addr := startDaemon(t, spool)
		id := submit(t, addr, `{"dist":"plummer","n":2000,"processors":2,"scheme":"spsa","machine":"ideal","mode":"potential","steps":400,"eps":0.05,"seed":7}`)
		waitFor(t, 2*time.Minute, "step 10", func() bool { return jobStatus(addr, id).Progress.Step >= 10 })
		d.signal(t, syscall.SIGTERM)
		if fi, err := os.Stat(filepath.Join(spool, "frames", id+".nbf")); err != nil || fi.Size() == 0 {
			t.Errorf("no frame chain after SIGTERM (stat: %v)", err)
		}
		if _, err := os.Stat(filepath.Join(spool, id, "resume.nbf")); !os.IsNotExist(err) {
			t.Errorf("spool holds a resume.nbf (stat: %v)", err)
		}
		_, addr = startDaemon(t, spool)
		waitResumed(t, addr, id, time.Minute)
	})
}

// startDaemon starts a one-worker framed nbodyd on spool and waits until
// it answers.
func startDaemon(t *testing.T, spool string) (*proc, string) {
	t.Helper()
	addr := freeAddr(t)
	d := start(t, "nbodyd", false, "-addr", addr, "-workers", "1", "-spool", spool, "-frames-key-every", "5")
	waitFor(t, time.Minute, "nbodyd to answer", func() bool {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil && resp.StatusCode == http.StatusOK
	})
	return d, addr
}

// submit posts a job spec to the daemon at addr and returns its id.
func submit(t *testing.T, addr, spec string) string {
	t.Helper()
	resp, err := client.Post("http://"+addr+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		t.Fatalf("submit: %s, id %q, %v", resp.Status, st.ID, err)
	}
	return st.ID
}

// jobStatus is the daemon's status of job id; the zero Status while the
// daemon is down.
func jobStatus(addr, id string) service.Status {
	var st service.Status
	getJSON("http://"+addr+"/api/v1/jobs/"+id, &st)
	return st
}

// waitResumed waits for job id to finish and requires it to have resumed
// from its chain.
func waitResumed(t *testing.T, addr, id string, d time.Duration) {
	t.Helper()
	waitFor(t, d, "the job to finish", func() bool { return jobStatus(addr, id).State.Terminal() })
	if st := jobStatus(addr, id); st.State != service.StateDone || st.ResumedFrom < 1 {
		t.Errorf("job %s: state %s, resumed_from %d; want done, resumed_from >= 1", id, st.State, st.ResumedFrom)
	}
}

// benchTable is a table as bhbench -json writes it.
type benchTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// benchTables reads the tables of a committed bhbench -json document.
func benchTables(t *testing.T, file string) []benchTable {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Tables []benchTable }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return doc.Tables
}

// TestLETTableGate regenerates `bhbench -table let` and requires it to
// equal the committed BENCH_let.json cell for cell (every cell is on the
// simulated clock, so it is machine-portable), and LET's words/step to
// stay strictly below naive data shipping's at every p ≥ 4.
func TestLETTableGate(t *testing.T) {
	slow(t)
	head, err := experiments.LETTable(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := benchTables(t, "BENCH_let.json")
	if len(base) != 1 || len(base[0].Rows) == 0 {
		t.Fatalf("BENCH_let.json holds %d tables; want the one let table, with rows", len(base))
	}
	hb, _ := json.Marshal(benchTable(head))
	bb, _ := json.Marshal(base[0])
	if !bytes.Equal(hb, bb) {
		t.Errorf("let table differs from BENCH_let.json:\n%s\nwant:\n%s", head.Format(), experiments.Table(base[0]).Format())
	}
	// Rows: scheme, p, strategy, words/step, ...
	naive := make(map[[2]string]string)
	for _, r := range head.Rows {
		if r[2] == "data-naive" {
			naive[[2]string{r[0], r[1]}] = r[3]
		}
	}
	pairs := 0
	for _, r := range head.Rows {
		n, ok := naive[[2]string{r[0], r[1]}]
		if p, _ := strconv.Atoi(r[1]); r[2] != "let" || !ok || p < 4 {
			continue
		}
		pairs++
		let, _ := strconv.ParseFloat(r[3], 64)
		if nv, _ := strconv.ParseFloat(n, 64); let >= nv {
			t.Errorf("%s p=%s: LET ships %s words/step, naive data shipping %s", r[0], r[1], r[3], n)
		}
	}
	if pairs == 0 {
		t.Error("no (scheme, p ≥ 4) cell has both a let and a data-naive row")
	}
}

// TestFramesDeltaRatioGate regenerates `bhbench -table frames` and holds
// each size's delta-compression ratio within 1.2× of the committed
// BENCH_frames.json. The ratio is machine-portable (the table's times
// are not): more than 20% worse means the XOR delta encoding regressed.
func TestFramesDeltaRatioGate(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays frame chains of up to 100k particles")
	}
	head, err := experiments.FramesTable(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: n, frames, key_kb, delta_kb, ratio, ...
	ratio := make(map[string]float64)
	for _, r := range head.Rows {
		ratio[r[0]], _ = strconv.ParseFloat(r[4], 64)
	}
	base := benchTables(t, "BENCH_frames.json")
	if len(base) != 1 || len(base[0].Rows) == 0 {
		t.Fatalf("BENCH_frames.json holds %d tables; want the one frames table, with rows", len(base))
	}
	for _, r := range base[0].Rows {
		b, _ := strconv.ParseFloat(r[4], 64)
		if h, ok := ratio[r[0]]; !ok || h > 1.2*b {
			t.Errorf("n=%s: delta ratio %v (regenerated: %v), committed %v; bound 1.2×", r[0], h, ok, b)
		}
	}
}

// TestCIRunPatterns requires every -run pattern of CI's workflow to name
// tests that exist: each |-separated alternative must match a func Test…
// of a package its go test line names. A stale name selects nothing, and
// go test passes on nothing.
func TestCIRunPatterns(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range staleRunNames(t, string(yml)) {
		t.Errorf("ci.yml: %s", s)
	}
	if got := staleRunNames(t, "go test -count=1 -run 'TestSize|TestNoSuchCheck' .\n"); len(got) != 1 {
		t.Errorf("a planted stale name gave %q, want one finding", got)
	}
}

// shellWord is one word of a go test line: a single-quoted string or a
// run of non-blanks.
var shellWord = regexp.MustCompile(`'[^']*'|\S+`)

// staleRunNames returns a finding for each -run alternative in the go
// test lines of script that matches no test of the named packages.
func staleRunNames(t *testing.T, script string) []string {
	t.Helper()
	var stale []string
	for _, line := range strings.Split(strings.ReplaceAll(script, "\\\n", " "), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var pattern string
		var pkgs []string
		words := shellWord.FindAllString(line, -1)
		for i, w := range words {
			switch {
			case w == "-run" && i+1 < len(words):
				pattern = strings.Trim(words[i+1], "'")
			case w == "." || strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		if pattern == "" || pattern == "^$" {
			continue
		}
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testNames(t, pkg)...)
		}
	alt:
		for _, a := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(a)
			if err != nil {
				stale = append(stale, fmt.Sprintf("%q in %v: %v", a, pkgs, err))
				continue
			}
			for _, n := range names {
				if re.MatchString(n) {
					continue alt
				}
			}
			stale = append(stale, fmt.Sprintf("%q matches no test in %v", a, pkgs))
		}
	}
	return stale
}

// testNames lists the Test functions of the package in dir.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	if strings.Contains(dir, "...") {
		t.Fatalf("a -run line names %s; list its packages", dir)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
