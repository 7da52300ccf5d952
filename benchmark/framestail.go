package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/frames"
	"repro/internal/service"
)

// tailResult is what the tail-follow client saw.
type tailResult struct {
	steps       []int64 // frame steps in arrival order
	last        *frames.Frame
	bytes       int64
	openRetries int
	err         error
}

// tailFrames follows GET …/frames in binary mode until the stream ends.
// While the job is not terminal, a 404 (the worker has not created the
// chain file yet) or a 500 (it has, but the magic is not written yet) is
// the known open race of ROADMAP item 1: retry and count.
func tailFrames(client *http.Client, jobURL string) tailResult {
	var tr tailResult
	var resp *http.Response
	for {
		req, err := http.NewRequest(http.MethodGet, jobURL+"/frames", nil)
		if err != nil {
			tr.err = err
			return tr
		}
		req.Header.Set("Accept", "application/octet-stream")
		resp, err = client.Do(req)
		if err != nil {
			tr.err = err
			return tr
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusInternalServerError {
			tr.err = fmt.Errorf("frames: HTTP %d", resp.StatusCode)
			return tr
		}
		if _, body, err := get(client, jobURL); err == nil {
			var st service.Status
			if json.Unmarshal(body, &st) == nil && st.State.Terminal() {
				tr.err = fmt.Errorf("frames: HTTP %d for a %s job", resp.StatusCode, st.State)
				return tr
			}
		}
		tr.openRetries++
		time.Sleep(pollEvery)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	magic := make([]byte, len(frames.Magic()))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, frames.Magic()) {
		tr.err = fmt.Errorf("frames: bad stream magic %q (%v)", magic, err)
		return tr
	}
	tr.bytes = int64(len(magic))
	// The stream is one standalone keyframe record per frame:
	// [u32 bodyLen][u8 kind][body][u32 crc].
	const framing = 4 + 1 + 4
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				tr.err = fmt.Errorf("frames: reading record header: %w", err)
			}
			return tr
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[:])
		if bodyLen > frames.MaxRecord {
			tr.err = fmt.Errorf("frames: record of %d bytes", bodyLen)
			return tr
		}
		rec := make([]byte, framing+int(bodyLen))
		copy(rec, hdr[:])
		if _, err := io.ReadFull(br, rec[len(hdr):]); err != nil {
			tr.err = fmt.Errorf("frames: reading record: %w", err)
			return tr
		}
		f, err := frames.DecodeKeyframe(rec)
		if err != nil {
			tr.err = err
			return tr
		}
		tr.bytes += int64(len(rec))
		tr.steps = append(tr.steps, f.Meta.Step)
		tr.last = f
	}
}

// runFramesTail is service_frames_tail: one framed job on a one-worker
// service while a client tail-follows its frame stream, then one replay
// of the finished chain with frames.Open / Reader.Next.
func runFramesTail(e *env) error {
	spool := filepath.Join(e.dir, "spool")
	svc, err := service.New(service.Options{
		Workers: 1, SpoolDir: spool, FramesKeyEvery: 16, CheckpointEvery: 10, Logf: silent,
	})
	if err != nil {
		return err
	}
	svc.Start()
	srv := httptest.NewServer(svc.Handler())
	client := &http.Client{} // no timeout: the tail stream lives as long as the job
	stopService := func() error {
		client.CloseIdleConnections()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return svc.Shutdown(ctx)
	}

	total := e.w.warmup + e.units
	spec := service.JobSpec{
		Name: e.w.name, Dist: datasetName, N: e.n, Seed: e.seed, Processors: 8, Scheme: "dpda", Machine: "cm5",
		Steps: total, Alpha: 1.0, Eps: eps, DT: dt, Shipping: "let",
	}
	posted := time.Now()
	code, body, err := postJob(client, srv.URL, spec)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, body)
	}
	var st service.Status
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		stopService()
		return err
	}
	jobURL := srv.URL + "/api/v1/jobs/" + st.ID
	progress, unsub, err := svc.Subscribe(st.ID)
	if err != nil {
		stopService()
		return err
	}
	tailDone := make(chan tailResult, 1)
	go func() { tailDone <- tailFrames(client, jobURL) }()

	// Step boundaries come from the progress subscription; the warm-up
	// steps' end is the end of set-up.
	var ts timedSection
	var walls []float64
	var prev time.Time
	timedEnded := false
	for p := range progress {
		now := time.Now()
		switch {
		case p.Step == e.w.warmup && prev.IsZero():
			ts = e.beginTimed()
			prev = ts.t0
		case p.Step > e.w.warmup && !prev.IsZero() && len(walls) < e.units:
			walls = append(walls, now.Sub(prev).Seconds())
			e.trace.add(1, "service.step", "", p.Step-e.w.warmup-1, prev, now)
			prev = now
			if p.Step == total {
				e.endTimed(ts, e.units, 1)
				timedEnded = true
			}
		}
	}
	unsub()
	tail := <-tailDone
	final, ferr := svc.Get(st.ID)
	var result service.Result
	if ferr == nil && final.State == service.StateDone {
		var rb []byte
		if code, rb, ferr = get(client, jobURL+"/result"); ferr == nil && code == http.StatusOK {
			ferr = json.Unmarshal(rb, &result)
		}
	}
	ckptBytes := svc.Metrics().CheckpointByte.Load()
	if err := stopService(); err != nil {
		return err
	}
	res := e.res
	res.Attempted = e.units
	if ferr != nil || final.State != service.StateDone || !timedEnded {
		res.check("job_done", false, fmt.Sprintf("job ended %q (%s) after %d timed steps: %v", final.State, final.Error, len(walls), ferr))
		res.Failed += e.units - 1 // the whole round is lost, not one step
		return nil
	}
	e.trace.add(0, "client.job", "", 0, posted, final.Finished)
	res.Samples["step_s_p50"] = walls
	res.Scalars["service.checkpoint_bytes_per_step"] = float64(ckptBytes) / float64(total)
	res.Scalars["service.frames_open_retries"] = float64(tail.openRetries)
	res.Scalars["frames.tail_bytes_streamed"] = float64(tail.bytes)

	inOrder := tail.err == nil && len(tail.steps) == total
	for i, s := range tail.steps {
		inOrder = inOrder && s == int64(i+1)
	}
	res.check("tail_delivered_all_steps_in_order", inOrder,
		fmt.Sprintf("tail stream delivered steps %v (want 1..%d): %v", tail.steps, total, tail.err))

	// Replay the finished chain once: the pure read path.
	sp, err := service.NewSpool(spool)
	if err != nil {
		return err
	}
	chain := sp.FramesPath(st.ID)
	rd, err := frames.Open(chain)
	if err != nil {
		return err
	}
	defer rd.Close()
	var acc frameAccum
	var f frames.Frame
	var replay time.Duration
	for {
		t0 := time.Now()
		err := rd.Next(&f)
		replay += time.Since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", chain, err)
		}
		acc.frames++
		if f.Meta.Step > int64(e.w.warmup) {
			acc.add(&f.Meta)
		}
	}
	res.Scalars["replay_frames_per_s"] = float64(acc.frames) / replay.Seconds()
	acc.report(res)
	last := make([]dist.Particle, f.Parts.Len())
	f.Parts.Scatter(last)
	same := acc.frames == total && tail.last != nil && stateCRC(last) == stateCRC(result.Bodies)
	if same {
		tl := make([]dist.Particle, tail.last.Parts.Len())
		tail.last.Parts.Scatter(tl)
		same = stateCRC(tl) == stateCRC(last)
	}
	res.check("last_frame_equals_result", same,
		fmt.Sprintf("replayed %d of %d frames; last replayed frame, last tailed frame and result bodies differ", acc.frames, total))
	res.CRCs["final"] = stateCRC(result.Bodies)

	if e.trace != nil {
		return frameStoreLayers(e, chain, spec)
	}
	return nil
}

// frameAccum accumulates the timed steps' frame headers, which carry
// each step's exact simulated measurements.
type frameAccum struct {
	frames, steps      int
	simTime, imbalance float64
	words, mac, pc, pp int64
}

func (a *frameAccum) add(m *frames.Meta) {
	a.steps++
	a.simTime += m.SimTime
	a.imbalance += m.Imbalance
	a.words += m.CommWords
	a.mac += m.MACTests
	a.pc += m.PC
	a.pp += m.PP
}

func (a *frameAccum) report(res *roundResult) {
	if a.steps == 0 {
		return
	}
	n := float64(a.steps)
	res.Scalars["sim_step_s"] = a.simTime / n
	res.Scalars["sim_imbalance"] = a.imbalance / n
	res.Scalars["parbh.comm_words_per_step"] = float64(a.words) / n
	res.Scalars["tree.mac_tests_per_step"] = float64(a.mac) / n
	res.Scalars["tree.pc_per_step"] = float64(a.pc) / n
	res.Scalars["tree.pp_per_step"] = float64(a.pp) / n
}

// countWriter counts bytes on their way to nowhere.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// frameStoreLayers is the traced run's attribution of the frame store
// and the checkpoint in isolation: the replayed frames are re-appended
// into a fresh chain with Append timed, SeekStep jumps to mid-chain, and
// a same-size simulation is checkpointed to a counting sink.
func frameStoreLayers(e *env, chain string, spec service.JobSpec) error {
	rd, err := frames.Open(chain)
	if err != nil {
		return err
	}
	defer rd.Close()
	w, err := frames.Create(filepath.Join(e.dir, "reappend.nbf"), frames.WriterOptions{KeyEvery: 16})
	if err != nil {
		return err
	}
	var f frames.Frame
	var appendDur time.Duration
	var n, keys, deltas int
	var keyBytes, deltaBytes int64
	for {
		err := rd.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return err
		}
		before := w.Size()
		t0 := time.Now()
		isKey, err := w.Append(&f)
		t1 := time.Now()
		if err != nil {
			w.Close()
			return err
		}
		appendDur += t1.Sub(t0)
		e.trace.add(2, "frames.append", "", n, t0, t1)
		n++
		if isKey {
			keys++
			keyBytes += w.Size() - before
		} else {
			deltas++
			deltaBytes += w.Size() - before
		}
	}
	size := w.Size()
	if err := w.Close(); err != nil {
		return err
	}
	s := e.res.Scalars
	s["frames.append_s_per_frame"] = appendDur.Seconds() / float64(n)
	s["frames.bytes_per_frame"] = float64(size) / float64(n)
	if keys > 0 && deltas > 0 {
		s["frames.delta_ratio"] = (float64(deltaBytes) / float64(deltas)) / (float64(keyBytes) / float64(keys))
	}
	t0 := time.Now()
	if err := rd.SeekStep(int64(n / 2)); err != nil {
		return err
	}
	if err := rd.Next(&f); err != nil {
		return err
	}
	t1 := time.Now()
	s["frames.seek_s"] = t1.Sub(t0).Seconds()
	e.trace.add(2, "frames.seek", "", 0, t0, t1)

	if err := spec.Validate(); err != nil { // fills the defaults NewSimulation reads
		return err
	}
	sim, err := spec.NewSimulation()
	if err != nil {
		return err
	}
	var sink countWriter
	t0 = time.Now()
	if err := sim.WriteCheckpoint(&sink); err != nil {
		return err
	}
	t1 = time.Now()
	s["checkpoint.write_s"] = t1.Sub(t0).Seconds()
	s["checkpoint.bytes"] = float64(sink.n)
	e.trace.add(2, "checkpoint.write", "", 0, t0, t1)
	return nil
}
