// Command nbodyload drives a gateway fleet the way the paper's
// experiment harness drives one simulated machine: a reproducible load
// of simulation jobs across several tenants, submitted concurrently,
// retried on 429 admission pushback, and polled to terminal state.
//
// At the end it prints a GOLDEN line TestFleetShardKillDrill pins:
//
//	GOLDEN fabric shards=3 accepted=60 lost=0 match=true cached=true
//
// match compares the byte-exact result of a gateway-routed job against
// the same spec computed directly in this process — the two-clock rule
// says fleet plumbing must never perturb simulated results. cached does
// the same for a second submission served from the gateway's result
// cache. lost counts accepted jobs that never reached a terminal state,
// which must stay zero even when a shard is killed mid-run.
//
// With -out, a BENCH_fabric.json report (internal/experiments
// FabricReport) is written for the benchmark artifact trail.
//
// With -mode gwha the driver runs the gateway crash drill instead: it
// submits jobs of graduated lengths, keeps polling straight through a
// gateway SIGKILL + journal restart that an outside harness
// (TestGatewaySIGKILLDrill, or a human following the README) performs, and
// pins the recovery invariants:
//
//	GOLDEN gwha shards=3 accepted=12 lost=0 adopted=2 parked=1 match=true
//
// lost must be zero even though the gateway died; adopted counts
// journaled leases the restarted gateway re-bound in place (their step
// counters must never move backwards — the driver checks every poll);
// parked counts results that completed during the outage and landed
// from a shard's outbox on reconnect. The drill exits nonzero when any
// invariant fails, including adopted==0 or parked==0 (a kill that
// interrupted nothing proves nothing).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/recio"
	"repro/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		gateway = flag.String("gateway", "http://127.0.0.1:8090", "gateway base URL")
		jobs    = flag.Int("jobs", 60, "jobs to submit")
		conc    = flag.Int("concurrency", 8, "concurrent submitters")
		tenants = flag.Int("tenants", 3, "tenant names to spread load over")
		unique  = flag.Int("unique", 12, "distinct specs; the rest repeat and should hit the cache or coalesce")
		steps   = flag.Int("steps", 3, "steps per job")
		n       = flag.Int("n", 96, "particles per job")
		timeout = flag.Duration("timeout", 3*time.Minute, "deadline for the whole drill")
		out     = flag.String("out", "", "write a BENCH_fabric.json report here")
		mode    = flag.String("mode", "fabric", "drill to run: fabric (load + cache + golden) or gwha (gateway crash drill)")
		gMin    = flag.Int("gwha-min-steps", 200, "gwha: shortest job's step count")
		gStride = flag.Int("gwha-step-stride", 400, "gwha: step-count increment between successive jobs")
	)
	flag.Parse()

	base := strings.TrimRight(*gateway, "/")
	deadline := time.Now().Add(*timeout)
	client := &http.Client{Timeout: 15 * time.Second}
	d := &driver{base: base, client: client, deadline: deadline}

	if *mode == "gwha" {
		return runGwha(d, *jobs, *n, *gMin, *gStride, *out)
	}

	if *unique < 1 {
		*unique = 1
	}
	start := time.Now()
	report := experiments.FabricReport{
		Gateway:     base,
		Tenants:     *tenants,
		Concurrency: *conc,
		UniqueSpecs: *unique,
		Submitted:   *jobs,
	}

	// Fan the load out: job i belongs to tenant i%tenants and reuses
	// spec i%unique, so repeats exercise the result cache and in-flight
	// coalescing while distinct seeds spread across the hash ring.
	type accepted struct {
		id     string
		tenant string
	}
	var (
		mu       sync.Mutex
		acc      []accepted
		rejected atomic.Int64
		retried  atomic.Int64
	)
	sem := make(chan struct{}, maxInt(1, *conc))
	var wg sync.WaitGroup
	for i := 0; i < *jobs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			spec := loadSpec(*n, *steps, i%*unique)
			tenant := fmt.Sprintf("t%d", i%maxInt(1, *tenants))
			id, nRetries, err := d.submit(tenant, spec)
			retried.Add(int64(nRetries))
			if err != nil {
				rejected.Add(1)
				fmt.Fprintf(os.Stderr, "nbodyload: job %d rejected: %v\n", i, err)
				return
			}
			mu.Lock()
			acc = append(acc, accepted{id: id, tenant: tenant})
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	report.Accepted = len(acc)
	report.Rejected429 = int(rejected.Load())
	report.Retried429 = int(retried.Load())
	fmt.Printf("nbodyload: %d/%d jobs accepted (%d retries on 429)\n",
		report.Accepted, *jobs, report.Retried429)

	// Poll every accepted job to a terminal state. "done" and
	// "canceled" are accounted for; anything else — failed, vanished,
	// or still limping at the deadline — counts as lost.
	for _, a := range acc {
		state, err := d.await(a.id)
		switch {
		case err != nil:
			report.Lost++
			fmt.Fprintf(os.Stderr, "nbodyload: job %s lost: %v\n", a.id, err)
		case state == "done":
			report.Done++
		case state == "failed":
			report.Failed++
			report.Lost++
		default: // canceled jobs were asked to stop; not lost
		}
	}
	report.ElapsedSecs = time.Since(start).Seconds()

	// Golden determinism check: one fixed spec through the fleet versus
	// the same computation performed directly in this process, compared
	// field-wise (see physicsEqual).
	goldenSpec := loadSpec(*n, *steps, 0)
	local, err := computeLocal(goldenSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbodyload: local golden computation failed: %v\n", err)
		return 1
	}
	remote, err := d.submitAndFetch("golden", goldenSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbodyload: golden gateway run failed: %v\n", err)
	} else {
		report.GoldenMatch = physicsEqual(local, remote)
	}
	// A second submission of the same canonical spec must be served from
	// the result cache — same physics, no new simulation.
	cachedBytes, err := d.submitAndFetch("golden", goldenSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbodyload: golden cache run failed: %v\n", err)
	} else {
		report.GoldenCached = physicsEqual(local, cachedBytes)
	}

	// Scrape gateway counters for the report.
	if metrics, err := d.fetchMetrics(); err == nil {
		report.CacheHits = metricValue(metrics, "nbodygw_cache_hits_total")
		report.Coalesced = metricValue(metrics, "nbodygw_jobs_coalesced_total")
		report.Rerouted = sumLabeled(metrics, "nbodygw_jobs_rerouted_total")
		report.Shards = int(metricValue(metrics, "nbodygw_shards_connected"))
	}

	fmt.Println(experiments.FabricTable(report).Format())
	fmt.Printf("GOLDEN fabric shards=%d accepted=%d lost=%d match=%v cached=%v\n",
		report.Shards, report.Accepted, report.Lost, report.GoldenMatch, report.GoldenCached)

	if *out != "" {
		if err := writeJSON(*out, report); err != nil {
			fmt.Fprintf(os.Stderr, "nbodyload: writing %s: %v\n", *out, err)
			return 1
		}
		fmt.Printf("nbodyload: wrote %s\n", *out)
	}

	if report.Lost > 0 || !report.GoldenMatch || !report.GoldenCached {
		return 1
	}
	return 0
}

// runGwha is the gateway crash drill (-mode gwha). It submits jobs of
// graduated lengths, then polls every one of them to a terminal state
// while an outside harness SIGKILLs the gateway mid-run and restarts it
// on its journal — connection errors during the outage are the expected
// case, not a failure. Besides completion it pins the adoption
// invariant on every poll: a job's step counter may never move
// backwards, because the restarted gateway re-binds journaled leases in
// place instead of re-executing them.
func runGwha(d *driver, jobs, n, minSteps, stride int, out string) int {
	start := time.Now()
	report := experiments.GwhaReport{Gateway: d.base, Submitted: jobs}

	type sub struct {
		id   string
		spec service.JobSpec
	}
	var accepted []sub
	for i := 0; i < jobs; i++ {
		spec := gwhaSpec(n, minSteps+i*stride, i)
		id, _, err := d.submit(fmt.Sprintf("t%d", i%3), spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbodyload: gwha job %d rejected: %v\n", i, err)
			continue
		}
		accepted = append(accepted, sub{id: id, spec: spec})
	}
	report.Accepted = len(accepted)
	fmt.Printf("nbodyload: gwha %d/%d jobs accepted; polling through the crash\n",
		report.Accepted, jobs)

	// Poll all jobs concurrently so the monotonicity check actually
	// observes each one across the outage, not just the first in line.
	var violations atomic.Int64
	states := make([]string, len(accepted))
	var wg sync.WaitGroup
	for i, a := range accepted {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			states[i] = d.awaitThroughOutage(id, &violations)
		}(i, a.id)
	}
	wg.Wait()
	for i, state := range states {
		switch state {
		case "done":
			report.Done++
		case "canceled": // asked to stop; not lost
		case "failed":
			report.Failed++
			report.Lost++
		default: // vanished or still limping at the deadline
			report.Lost++
			fmt.Fprintf(os.Stderr, "nbodyload: gwha job %s lost (last state %q)\n",
				accepted[i].id, state)
		}
	}
	report.StepViolations = int(violations.Load())
	report.ElapsedSecs = time.Since(start).Seconds()

	// Golden determinism check on the longest job — the one that lived
	// through the crash: its physics must match a direct in-process run.
	if len(accepted) > 0 {
		last := accepted[len(accepted)-1]
		local, err := computeLocal(last.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbodyload: local golden computation failed: %v\n", err)
			return 1
		}
		remote, err := d.fetchResult(last.id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbodyload: golden fetch failed: %v\n", err)
		} else {
			report.GoldenMatch = physicsEqual(local, remote)
		}
	}

	// The restarted gateway's counters carry the recovery evidence.
	if metrics, err := d.fetchMetrics(); err == nil {
		report.Adopted = metricValue(metrics, "nbodygw_jobs_adopted_total")
		report.Parked = metricValue(metrics, "nbodygw_parked_results_total")
		report.Rerouted = sumLabeled(metrics, "nbodygw_jobs_rerouted_total")
		report.JournalBytes = metricValue(metrics, "nbodygw_journal_bytes")
		report.ReconcileSecs = metricFloat(metrics, "nbodygw_reconcile_seconds")
		report.Shards = int(metricValue(metrics, "nbodygw_shards_connected"))
	}

	fmt.Println(experiments.GwhaTable(report).Format())
	fmt.Printf("GOLDEN gwha shards=%d accepted=%d lost=%d adopted=%d parked=%d match=%v\n",
		report.Shards, report.Accepted, report.Lost, report.Adopted, report.Parked,
		report.GoldenMatch)

	if out != "" {
		if err := writeJSON(out, report); err != nil {
			fmt.Fprintf(os.Stderr, "nbodyload: writing %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("nbodyload: wrote %s\n", out)
	}

	if report.Lost > 0 || !report.GoldenMatch || report.StepViolations > 0 {
		return 1
	}
	if report.Adopted == 0 || report.Parked == 0 {
		fmt.Fprintln(os.Stderr,
			"nbodyload: gwha drill interrupted nothing (adopted or parked is zero); the kill landed outside the run")
		return 1
	}
	return 0
}

// gwhaSpec builds the i-th crash-drill job: same physics shape,
// distinct seed, graduated length so that whenever the kill lands some
// jobs are mid-run (adoption fodder) and some finish during the outage
// (park fodder).
func gwhaSpec(n, steps, variant int) service.JobSpec {
	return service.JobSpec{
		Name:       fmt.Sprintf("gwha-%d", variant),
		Dist:       "plummer",
		N:          n,
		Seed:       int64(500 + variant),
		Processors: 2,
		Scheme:     "spsa",
		Machine:    "ideal",
		Steps:      steps,
		Eps:        0.05,
		DT:         0.01,
	}
}

// loadSpec builds the i-th distinct job spec: identical physics shape,
// distinct seed, so results differ per variant but repeat per i.
func loadSpec(n, steps, variant int) service.JobSpec {
	return service.JobSpec{
		Name:       fmt.Sprintf("load-%d", variant),
		Dist:       "uniform",
		N:          n,
		Seed:       int64(1000 + variant),
		Processors: 2,
		Scheme:     "spsa",
		Machine:    "ideal",
		Steps:      steps,
		Eps:        0.05,
	}
}

// computeLocal runs the spec in-process exactly the way a shard worker
// does and returns the marshaled service.Result.
func computeLocal(spec service.JobSpec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		return nil, err
	}
	var machineTime float64
	for step := 0; step < spec.Steps; step++ {
		res := sim.Step()
		machineTime += res.SimTime
	}
	out := &service.Result{
		Steps:         spec.Steps,
		SimTime:       sim.Time(),
		MachineTime:   machineTime,
		KineticEnergy: sim.KineticEnergy(),
		Bodies:        sim.Bodies(),
	}
	return json.Marshal(out)
}

// physicsEqual compares two marshaled service.Results field for field —
// steps, integrator time, kinetic energy, simulated machine time and
// every particle — byte-for-byte after canonical re-marshaling.
func physicsEqual(a, b []byte) bool {
	var ra, rb service.Result
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
		return false
	}
	ca, errA := json.Marshal(&ra)
	cb, errB := json.Marshal(&rb)
	return errA == nil && errB == nil && bytes.Equal(ca, cb)
}

// driver is the HTTP client side of the drill.
type driver struct {
	base     string
	client   *http.Client
	deadline time.Time
}

// submit POSTs one job, retrying on 429 pushback per the Retry-After
// hint. It returns the gateway job ID and how many retries 429s cost.
func (d *driver) submit(tenant string, spec service.JobSpec) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	retries := 0
	for {
		if time.Now().After(d.deadline) {
			return "", retries, fmt.Errorf("deadline exceeded while submitting")
		}
		req, err := http.NewRequest(http.MethodPost, d.base+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", retries, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := d.client.Do(req)
		if err != nil {
			return "", retries, err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(payload, &st); err != nil {
				return "", retries, fmt.Errorf("decoding submit response: %w", err)
			}
			return st.ID, retries, nil
		case http.StatusTooManyRequests:
			retries++
			wait := time.Second
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait > 3*time.Second {
				wait = 3 * time.Second
			}
			time.Sleep(wait)
		default:
			return "", retries, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
		}
	}
}

// await polls one job until it reaches a terminal state.
func (d *driver) await(id string) (string, error) {
	for {
		if time.Now().After(d.deadline) {
			return "", fmt.Errorf("deadline exceeded awaiting job %s", id)
		}
		resp, err := d.client.Get(d.base + "/api/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(payload)))
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			return "", err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st.State, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// awaitThroughOutage polls one job to a terminal state, treating every
// transport or HTTP error as "the gateway is down right now" and
// retrying until the drill deadline — the crash drill's outage is the
// expected case. Each successful poll feeds the step-monotonicity
// check: a nonzero step below the job's high-water mark means a silent
// re-execution, which adoption exists to prevent. (Step zero is "no
// update yet this session" — a freshly restarted gateway has no
// progress until the adopted shard's first report — so it never counts
// as a violation.)
func (d *driver) awaitThroughOutage(id string, violations *atomic.Int64) string {
	var maxStep int64
	last := ""
	for {
		if time.Now().After(d.deadline) {
			return last
		}
		resp, err := d.client.Get(d.base + "/api/v1/jobs/" + id)
		if err != nil {
			time.Sleep(500 * time.Millisecond)
			continue
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			time.Sleep(500 * time.Millisecond)
			continue
		}
		var st struct {
			State    string `json:"state"`
			Progress struct {
				Step int64 `json:"step"`
			} `json:"progress"`
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			time.Sleep(500 * time.Millisecond)
			continue
		}
		last = st.State
		if st.Progress.Step > 0 {
			if st.Progress.Step < maxStep {
				violations.Add(1)
				fmt.Fprintf(os.Stderr, "nbodyload: job %s step went backwards: %d after %d\n",
					id, st.Progress.Step, maxStep)
			} else {
				maxStep = st.Progress.Step
			}
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st.State
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// fetchResult returns one finished job's result bytes.
func (d *driver) fetchResult(id string) ([]byte, error) {
	resp, err := d.client.Get(d.base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	return bytes.TrimSpace(payload), nil
}

// submitAndFetch submits one job, waits for it, and returns its result
// bytes.
func (d *driver) submitAndFetch(tenant string, spec service.JobSpec) ([]byte, error) {
	id, _, err := d.submit(tenant, spec)
	if err != nil {
		return nil, err
	}
	state, err := d.await(id)
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("job %s finished %s", id, state)
	}
	return d.fetchResult(id)
}

// fetchMetrics returns the gateway's /metrics exposition text.
func (d *driver) fetchMetrics() (string, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return string(payload), err
}

// writeJSON writes v to path as indented JSON, atomically.
func writeJSON(path string, v any) error {
	return recio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// metricValue extracts one plain metric row's value.
func metricValue(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			fields := strings.Fields(line)
			if len(fields) == 2 {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return int64(v)
				}
			}
		}
	}
	return 0
}

// metricFloat extracts one plain metric row's value without rounding.
func metricFloat(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			fields := strings.Fields(line)
			if len(fields) == 2 {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return v
				}
			}
		}
	}
	return 0
}

// sumLabeled sums every row of a labeled metric family.
func sumLabeled(text, name string) int64 {
	var sum int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"{") {
			fields := strings.Fields(line)
			if len(fields) == 2 {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					sum += int64(v)
				}
			}
		}
	}
	return sum
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
