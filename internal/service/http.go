package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/frames"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs             submit a job (202; 400 invalid; 429 full)
//	GET  /api/v1/jobs             list jobs in submission order
//	GET  /api/v1/jobs/{id}        one job's status
//	GET  /api/v1/jobs/{id}/stream NDJSON progress until the job ends
//	POST /api/v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /api/v1/jobs/{id}/result final state of a completed job
//	GET  /api/v1/jobs/{id}/frames replay the job's frame chain (see handleFrames)
//	GET  /api/v1/jobs/{id}/trace  Chrome/Perfetto trace of a traced job
//	GET  /metrics                 Prometheus-style text metrics
//	GET  /healthz                 liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/frames", s.handleFrames)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxSubmitBytes bounds a job submission body. A JobSpec serializes to
// well under a kilobyte; anything beyond a megabyte is a client error
// (or abuse), and bounding the read keeps one request from holding the
// daemon's memory hostage.
const maxSubmitBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.JobsInvalid.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job spec exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/api/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeErr(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotDone):
		writeErr(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}

// StreamEvent is one NDJSON line of a progress stream. The final line
// of a stream carries the job's terminal state.
type StreamEvent struct {
	ID       string   `json:"id"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, unsub, err := s.Subscribe(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer unsub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(p Progress) bool {
		st, err := s.Get(id)
		if err != nil {
			return false
		}
		ev := StreamEvent{ID: id, State: st.State, Progress: p, Error: st.Error}
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-ch:
			if !ok {
				// Terminal: emit one final event with the closing state.
				if st, err := s.Get(id); err == nil {
					emit(st.Progress)
				}
				return
			}
			if !emit(p) {
				return
			}
		}
	}
}

// frameEvent is one NDJSON line of a frame replay stream: the frame's
// metrics header plus (unless fields=meta) the particle columns. Floats
// are emitted by encoding/json in shortest-round-trip form, so parsing
// them back yields bit-identical values.
type frameEvent struct {
	Step        int64   `json:"step"`
	Time        float64 `json:"time"`
	SimTime     float64 `json:"sim_time"`
	MachineTime float64 `json:"machine_time"`
	Energy      float64 `json:"energy"`
	Efficiency  float64 `json:"efficiency"`
	Imbalance   float64 `json:"imbalance"`
	CommWords   int64   `json:"comm_words,omitempty"`
	MACTests    int64   `json:"mac_tests,omitempty"`
	PC          int64   `json:"pc,omitempty"`
	PP          int64   `json:"pp,omitempty"`
	N           int     `json:"n"`

	ID   []int32   `json:"id,omitempty"`
	Mass []float64 `json:"mass,omitempty"`
	PosX []float64 `json:"pos_x,omitempty"`
	PosY []float64 `json:"pos_y,omitempty"`
	PosZ []float64 `json:"pos_z,omitempty"`
	VelX []float64 `json:"vel_x,omitempty"`
	VelY []float64 `json:"vel_y,omitempty"`
	VelZ []float64 `json:"vel_z,omitempty"`
}

// queryInt parses an integer query parameter, returning def when absent.
func queryInt(r *http.Request, key string, def int64) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, v)
	}
	return n, nil
}

// handleFrames streams a job's frame chain:
//
//	GET /api/v1/jobs/{id}/frames?from=<step>&stride=<k>[&fields=meta]
//
// Frames with step >= from are emitted, every stride-th one. The
// default encoding is NDJSON (one frameEvent per line); a request with
// Accept: application/octet-stream gets the raw binary form instead —
// the frames magic followed by one self-contained keyframe record per
// frame, decodable with frames.DecodeKeyframe. Running jobs are
// followed: the stream tails the chain as the worker appends and ends
// when the job reaches a terminal state (finished jobs replay whatever
// their chain retains after compaction). A job that has not created its
// chain yet — still queued, or its worker is between creating the file
// and writing the magic — is waited for, not refused: 404 "no frames" is
// for a job that ended without one. A stateless job's frames carry the
// header alone (N is 0).
func (s *Service) handleFrames(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Get(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	path := s.spool.FramesPath(id)
	if path == "" {
		writeErr(w, http.StatusNotFound, errors.New("service: frame store disabled (daemon has no spool)"))
		return
	}
	from, err := queryInt(r, "from", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	stride, err := queryInt(r, "stride", 1)
	if err != nil || stride < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("stride must be a positive integer"))
		return
	}
	// Progress events wake the tail-follow loop; the channel closes at
	// the job's terminal transition. Subscribing before the chain is
	// opened means no edge between the two can be missed.
	progress, unsub, err := s.Subscribe(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer unsub()
	rd, err := s.awaitFrames(r.Context(), id, path, progress)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeErr(w, http.StatusNotFound, errors.New("service: job has no frames"))
		} else {
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	defer rd.Close()
	if from > 0 {
		if err := rd.SeekStep(from); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	metaOnly := r.URL.Query().Get("fields") == "meta"
	raw := strings.Contains(r.Header.Get("Accept"), "application/octet-stream")

	flusher, _ := w.(http.Flusher)
	var enc *json.Encoder
	if raw {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(frames.Magic()); err != nil {
			return
		}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
	}
	emit := func(f *frames.Frame) bool {
		if raw {
			if _, err := frames.WriteKeyframe(w, f); err != nil {
				return false
			}
		} else {
			ev := frameEvent{
				Step:        f.Meta.Step,
				Time:        f.Meta.Time,
				SimTime:     f.Meta.SimTime,
				MachineTime: f.Meta.MachineTime,
				Energy:      f.Meta.Energy,
				Efficiency:  f.Meta.Efficiency,
				Imbalance:   f.Meta.Imbalance,
				CommWords:   f.Meta.CommWords,
				MACTests:    f.Meta.MACTests,
				PC:          f.Meta.PC,
				PP:          f.Meta.PP,
				N:           f.Parts.Len(),
			}
			if !metaOnly {
				p := &f.Parts
				ev.ID, ev.Mass = p.ID, p.Mass
				ev.PosX, ev.PosY, ev.PosZ = p.PosX, p.PosY, p.PosZ
				ev.VelX, ev.VelY, ev.VelZ = p.VelX, p.VelY, p.VelZ
			}
			if err := enc.Encode(ev); err != nil {
				return false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	terminal := false
	var f frames.Frame
	for {
		err := rd.Next(&f)
		switch {
		case err == nil:
			if f.Meta.Step < from || (f.Meta.Step-from)%stride != 0 {
				continue
			}
			if !emit(&f) {
				return
			}
		case errors.Is(err, io.EOF):
			// Clean close, or the chain caught up with the writer. A live
			// job may still append; wait for progress (or a short tick —
			// compaction can land frames without a progress edge) and
			// rescan. After a terminal state the chain is final: drain once
			// more and stop.
			if rd.CleanEOF() || terminal {
				return
			}
			if st, gerr := s.Get(id); gerr != nil || st.State.Terminal() {
				terminal = true
				continue
			}
			select {
			case <-r.Context().Done():
				return
			case _, ok := <-progress:
				if !ok {
					terminal = true
				}
			case <-time.After(250 * time.Millisecond):
			}
		default:
			// Corrupt mid-chain record: the valid prefix has been served;
			// there is nothing safe after it.
			return
		}
	}
}

// awaitFrames opens the job's frame chain for reading. While the job is
// not terminal, a chain that is missing or has no magic yet is about to
// be created by its worker: wait for progress (or a short tick) and
// retry. The job's state is read before each attempt, so the
// attempt that follows a terminal state sees the chain's final form.
func (s *Service) awaitFrames(ctx context.Context, id, path string, progress <-chan Progress) (*frames.Reader, error) {
	for {
		st, gerr := s.Get(id)
		rd, err := frames.Open(path)
		if err == nil {
			return rd, nil
		}
		pending := errors.Is(err, fs.ErrNotExist) || errors.Is(err, frames.ErrCorrupt)
		if !pending || gerr != nil || st.State.Terminal() {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case _, ok := <-progress:
			if !ok {
				progress = nil // terminal: the next attempt is the last
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ExpositionContentType)
	w.Write([]byte(s.metrics.Render()))
}
