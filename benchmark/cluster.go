package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/parbh"
	"repro/internal/transport"
)

const (
	clusterRanks = 8
	clusterNodes = 3 // coordinator + 2 workers, all in this process
)

// runCluster is cluster_tcp_func_p8: one coordinator and two workers in
// this process, joined over loopback TCP, running DPDA function-shipping
// force evaluations through cluster.Coordinator.Run. Every rank frame
// between nodes crosses the transport codec and a socket.
func runCluster(e *env) error {
	set, err := e.dataset()
	if err != nil {
		return err
	}
	listen := transport.Config{ListenAddr: "127.0.0.1:0"}
	coordNode, err := transport.NewCoordinator(listen, clusterNodes)
	if err != nil {
		return err
	}
	nodes := []*transport.Node{coordNode}
	var mu sync.Mutex
	var wg sync.WaitGroup
	workerErrs := make(chan error, clusterNodes-1)
	for p := 1; p < clusterNodes; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node, err := transport.Join(coordNode.Addr(), listen)
			if err != nil {
				workerErrs <- err
				return
			}
			defer node.Close()
			mu.Lock()
			nodes = append(nodes, node)
			mu.Unlock()
			if err := cluster.Serve(node, nil); err != nil {
				workerErrs <- err
			}
		}()
	}
	if err := coordNode.WaitWorkers(30 * time.Second); err != nil {
		coordNode.Close()
		wg.Wait()
		return err
	}
	coord, err := cluster.NewCoordinator(coordNode)
	if err != nil {
		coordNode.Close()
		wg.Wait()
		return err
	}
	sent := func() (bytes, frames int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range nodes {
			bytes += n.Metrics().BytesSent.Load()
			frames += n.Metrics().FramesSent.Load()
		}
		return bytes, frames
	}

	job := cluster.Job{
		Name:    e.w.name,
		Ranks:   clusterRanks,
		Steps:   e.w.warmup + e.units,
		Profile: msg.CM5(),
		Config:  parbh.Config{Scheme: parbh.DPDA, Mode: parbh.ForceMode, Alpha: alpha, Eps: eps, LeafCap: leafCap},
		Domain:  set.Domain,
		Parts:   set.Particles,
	}
	var (
		ts             timedSection
		acc            simAccum
		walls          []float64
		prev           time.Time
		bytes0, frame0 int64
		firstAccels    uint32
		lastAccels     uint32
	)
	_, runErr := coord.Run(job, func(step int, r *parbh.Result) bool {
		now := time.Now()
		if step == 0 {
			firstAccels = accelCRC(r.Accels)
		}
		switch {
		case step == e.w.warmup-1:
			bytes0, frame0 = sent()
			ts = e.beginTimed()
			prev = ts.t0
		case step >= e.w.warmup:
			walls = append(walls, now.Sub(prev).Seconds())
			e.trace.add(0, "cluster.step", "", step-e.w.warmup, prev, now)
			acc.add(r)
			prev = now
			if step == job.Steps-1 {
				lastAccels = accelCRC(r.Accels)
			}
		}
		return true
	})
	if runErr == nil {
		e.endTimed(ts, e.units, 1)
	}
	bytes1, frame1 := sent()
	shutErr := coord.Shutdown()
	wg.Wait()
	close(workerErrs)
	if runErr != nil {
		return runErr
	}
	if shutErr != nil {
		return shutErr
	}
	for err := range workerErrs {
		return fmt.Errorf("cluster worker: %w", err)
	}

	res, n := e.res, float64(e.units)
	res.Attempted = e.units
	res.Samples["step_s_p50"] = walls
	res.Samples["cluster.step_s_p50"] = walls
	acc.report(res)
	res.CRCs["final"] = lastAccels
	res.Scalars["transport.bytes_sent_per_step"] = float64(bytes1-bytes0) / n
	res.Scalars["transport.frames_sent_per_step"] = float64(frame1-frame0) / n
	if e.check {
		// Two-clock rule across transports: the first force evaluation
		// over TCP equals an in-process engine on the same job bit-for-bit.
		ref, err := parbh.New(msg.NewMachine(clusterRanks, job.Profile), set, job.Config)
		if err != nil {
			return err
		}
		want := accelCRC(ref.Step().Accels)
		res.check("tcp_accels_equal_inproc", firstAccels == want,
			fmt.Sprintf("first-evaluation accelerations CRC %08x over TCP, %08x in-process", firstAccels, want))
	}
	return nil
}
