package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/service"
)

const (
	fleetShards  = 2
	fleetClients = 2
	// pollEvery is the client's result-poll interval and therefore the
	// resolution of every job latency.
	pollEvery = 2 * time.Millisecond
	// repeatEvery makes every 5th job repeat the spec of the job 4
	// before it, which has finished or is in flight by then.
	repeatEvery = 5
)

func silent(string, ...any) {}

// fleet is an in-process gateway plus shards, each a service with a
// fabric agent and its own HTTP server, as nbodygw + nbodyd would run.
type fleet struct {
	gw     *fabric.Gateway
	gwSrv  *httptest.Server
	svcs   []*service.Service
	srvs   []*httptest.Server
	stop   chan struct{}
	agents sync.WaitGroup
}

func startFleet(dir string) (*fleet, error) {
	gw, err := fabric.NewGateway(fabric.Options{
		JournalPath: filepath.Join(dir, "gateway.journal"),
		// High enough that a 429 measures the backlog bound, never the
		// tenant token bucket.
		TenantRate:  1e6,
		TenantBurst: 1e6,
		Logf:        silent,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{gw: gw, gwSrv: httptest.NewServer(gw.Handler()), stop: make(chan struct{})}
	for i := 0; i < fleetShards; i++ {
		svc, err := service.New(service.Options{
			Workers:  1,
			SpoolDir: filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			Logf:     silent,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		svc.Start()
		srv := httptest.NewServer(svc.Handler())
		f.svcs, f.srvs = append(f.svcs, svc), append(f.srvs, srv)
		agent := &fabric.Agent{
			Svc:      svc,
			Gateway:  gw.ControlAddr(),
			Name:     fmt.Sprintf("shard%d", i),
			HTTPAddr: strings.TrimPrefix(srv.URL, "http://"),
			Capacity: 1,
			Logf:     silent,
		}
		f.agents.Add(1)
		go func() {
			defer f.agents.Done()
			agent.Run(f.stop)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(gw.Shards()) < fleetShards {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet: %d of %d shards registered", len(gw.Shards()), fleetShards)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close drains the fleet: agents first (nothing is leased any more),
// then the shard services, then the listeners and the gateway.
func (f *fleet) close() error {
	close(f.stop)
	f.agents.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for _, svc := range f.svcs {
		if err := svc.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.gwSrv.Close()
	if err := f.gw.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// fleetJob is the client's record of one job.
type fleetJob struct {
	name                   string
	posted, accepted, done time.Time
	status                 fabric.GwStatus
	body                   []byte
	rejected               int
	err                    error
}

// fleetSpec is job idx of the round: distinct seeds, except that every
// repeatEvery-th job repeats an earlier spec under a new name (the name
// is not part of the cache key).
func fleetSpec(e *env, idx int) service.JobSpec {
	src := idx
	if isRepeat(idx) {
		src = idx - (repeatEvery - 1)
	}
	return service.JobSpec{
		Name: fmt.Sprintf("bench-%d", idx), Dist: datasetName, N: e.n, Seed: e.seed*1_000_003 + int64(src) + 1,
		Processors: 4, Scheme: "dpda", Machine: "cm5", Steps: stepsPerFleetJob,
		Alpha: alpha, Eps: eps, DT: dt, Shipping: "let",
	}
}

// isRepeat is false for the warm-up jobs, whose indices are negative.
func isRepeat(idx int) bool { return idx%repeatEvery == repeatEvery-1 }

// runJob is one closed-loop batch caller: POST the job, poll its result
// every pollEvery, read the body.
func runJob(client *http.Client, base string, spec service.JobSpec) fleetJob {
	j := fleetJob{name: spec.Name, posted: time.Now()}
	for {
		code, body, err := postJob(client, base, spec)
		if err != nil {
			j.err = err
			return j
		}
		if code == http.StatusTooManyRequests && time.Since(j.posted) < time.Minute {
			j.rejected++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if code != http.StatusAccepted {
			j.err = fmt.Errorf("submit: HTTP %d: %s", code, body)
			return j
		}
		j.accepted = time.Now()
		if err := json.Unmarshal(body, &j.status); err != nil {
			j.err = err
			return j
		}
		break
	}
	url := base + "/api/v1/jobs/" + j.status.ID
	for polls := 1; ; polls++ {
		code, body, err := get(client, url+"/result")
		if err != nil {
			j.err = err
			return j
		}
		if code == http.StatusOK {
			j.done, j.body = time.Now(), body
			return j
		}
		// /result answers 409 for a failed job too: look at the state now
		// and then so a failure cannot spin forever.
		if polls%256 == 0 {
			if _, sb, err := get(client, url); err == nil {
				var st fabric.GwStatus
				if json.Unmarshal(sb, &st) == nil && st.State.Terminal() && st.State != service.StateDone {
					j.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
					return j
				}
			}
			if time.Since(j.posted) > time.Minute {
				j.err = fmt.Errorf("job %s not done after a minute", j.status.ID)
				return j
			}
		}
		time.Sleep(pollEvery)
	}
}

// postJob submits a spec to a gateway or a shard as tenant "bench".
func postJob(client *http.Client, base string, spec service.JobSpec) (int, []byte, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "bench")
	return do(client, req)
}

func get(client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// routeSeconds reads the gateway's admission→lease histogram the way an
// outside observer does: from the /metrics exposition text.
func routeSeconds(gw *fabric.Gateway) (sum float64, count int64) {
	for _, line := range strings.Split(gw.Metrics().Render(time.Now()), "\n") {
		switch {
		case strings.HasPrefix(line, "nbodygw_route_seconds_sum "):
			fmt.Sscan(strings.TrimPrefix(line, "nbodygw_route_seconds_sum "), &sum)
		case strings.HasPrefix(line, "nbodygw_route_seconds_count "):
			fmt.Sscan(strings.TrimPrefix(line, "nbodygw_route_seconds_count "), &count)
		}
	}
	return sum, count
}

// localResult runs a spec in this process the way a shard worker does.
func localResult(spec service.JobSpec) (*service.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		return nil, err
	}
	var machineTime float64
	for i := 0; i < spec.Steps; i++ {
		machineTime += sim.Step().SimTime
	}
	return &service.Result{
		Steps: spec.Steps, SimTime: sim.Time(), MachineTime: machineTime,
		KineticEnergy: sim.KineticEnergy(), Bodies: sim.Bodies(),
	}, nil
}

// physicsEqual compares a result body with a locally computed result on
// the deterministic fields. MachineTime is excluded, as in nbodyload:
// the simulated completion clock may carry waiting-time jitter while
// the physics underneath is exact.
func physicsEqual(body []byte, want *service.Result) bool {
	var got service.Result
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	got.MachineTime = want.MachineTime
	a, errA := json.Marshal(&got)
	b, errB := json.Marshal(want)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// runFleet is fleet_small_jobs: a closed loop of fleetClients batch
// callers, each waiting for its own job, over a journaled gateway and
// two one-worker shards. Compute is the minority by construction.
func runFleet(e *env) error {
	f, err := startFleet(e.dir)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	base := f.gwSrv.URL
	for k := 0; k < e.w.warmup; k++ {
		if j := runJob(client, base, fleetSpec(e, -1-k)); j.err != nil {
			f.close()
			return fmt.Errorf("warm-up job: %w", j.err)
		}
	}

	gm := f.gw.Metrics()
	route0, routeN0 := routeSeconds(f.gw)
	journal0 := gm.JournalBytes.Load()
	hits0 := gm.CacheHits.Load() + gm.Coalesced.Load()
	ts := e.beginTimed()
	jobs := make([]fleetJob, e.units)
	var next atomic.Int64
	var clients sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= e.units {
					return
				}
				jobs[i] = runJob(client, base, fleetSpec(e, i))
			}
		}()
	}
	clients.Wait()
	e.endTimed(ts, e.units*stepsPerFleetJob, e.units)
	route1, routeN1 := routeSeconds(f.gw)
	journal1 := gm.JournalBytes.Load()
	hits1 := gm.CacheHits.Load() + gm.Coalesced.Load()

	// Shard-side view of every job, matched by the unique spec name.
	shardJobs := map[string]service.Status{}
	for _, svc := range f.svcs {
		for _, st := range svc.Jobs() {
			shardJobs[st.Spec.Name] = st
		}
	}
	if err := f.close(); err != nil {
		return err
	}
	client.CloseIdleConnections()

	res := e.res
	res.Attempted = e.units
	var repeats, rejected int
	var simTime, imbalance float64
	var misses int
	for i := range jobs {
		j := &jobs[i]
		rejected += j.rejected
		if isRepeat(i) {
			repeats++
		}
		if j.err != nil {
			res.check("every_job_done", false, fmt.Sprintf("job %d: %v", i, j.err))
			continue
		}
		res.check("every_job_done", true, "")
		lat := j.done.Sub(j.posted).Seconds()
		res.Samples["fabric.accept_s_p50"] = append(res.Samples["fabric.accept_s_p50"], j.accepted.Sub(j.posted).Seconds())
		if isRepeat(i) {
			first := &jobs[i-(repeatEvery-1)]
			res.check("repeat_byte_equal", first.err != nil || bytes.Equal(j.body, first.body),
				fmt.Sprintf("job %d differs from the job %d it repeats", i, i-(repeatEvery-1)))
		}
		if j.status.Cached {
			res.Samples["fabric.cache_hit_latency_s_p50"] = append(res.Samples["fabric.cache_hit_latency_s_p50"], lat)
		}
		st, ran := shardJobs[j.name]
		if !ran {
			continue // served from the cache or coalesced onto a leader
		}
		misses++
		for _, m := range []string{"job_latency_s_p50", "job_latency_s_p90", "client.job_latency_s_p99"} {
			res.Samples[m] = append(res.Samples[m], lat)
		}
		res.Samples["service.queue_wait_s_p50"] = append(res.Samples["service.queue_wait_s_p50"], st.Started.Sub(st.Created).Seconds())
		run := st.Finished.Sub(st.Started).Seconds()
		res.Samples["service.run_s_p50"] = append(res.Samples["service.run_s_p50"], run)
		res.Samples["step_s_p50"] = append(res.Samples["step_s_p50"], run/stepsPerFleetJob)
		res.Samples["client.deliver_s_p50"] = append(res.Samples["client.deliver_s_p50"], j.done.Sub(st.Finished).Seconds())
		var out service.Result
		if err := json.Unmarshal(j.body, &out); err == nil {
			simTime += out.MachineTime / float64(out.Steps)
		}
		imbalance += st.Progress.Imbalance
		if tr := e.trace; tr != nil {
			tr.add(0, "client.job", "", i, j.posted, j.done)
			tr.add(0, "fabric.accept", "client.job", i, j.posted, j.accepted)
			tr.add(1, "fabric.dispatch", "client.job", i, j.status.Created, st.Created)
			tr.add(1, "service.queue_wait", "client.job", i, st.Created, st.Started)
			tr.add(1, "service.run", "client.job", i, st.Started, st.Finished)
			tr.add(0, "client.deliver", "client.job", i, st.Finished, j.done)
		}
	}
	if misses > 0 {
		res.Scalars["sim_step_s"] = simTime / float64(misses)
		res.Scalars["sim_imbalance"] = imbalance / float64(misses)
	}
	n := float64(e.units)
	if routeN1 > routeN0 {
		res.Scalars["fabric.route_s_mean"] = (route1 - route0) / float64(routeN1-routeN0)
	}
	res.Scalars["fabric.journal_bytes_per_job"] = float64(journal1-journal0) / n
	if repeats > 0 {
		res.Scalars["fabric.cache_hit_ratio"] = float64(hits1-hits0) / float64(repeats)
	}
	res.Scalars["fabric.rejected_429"] = float64(rejected)

	// Golden job: what came back through gateway → lease → shard equals
	// the same spec computed here.
	if jobs[0].err == nil {
		want, err := localResult(fleetSpec(e, 0))
		if err != nil {
			return err
		}
		res.check("golden_job_equals_local", physicsEqual(jobs[0].body, want), "job 0 differs from a local run of its spec")
	}
	return nil
}
