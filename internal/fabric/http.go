package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// maxSubmitBytes bounds a job submission body; anything larger is a
// client error, not a legitimate spec.
const maxSubmitBytes = 1 << 20

// Handler serves the gateway HTTP API. It mirrors the shard daemon's
// /api/v1/jobs surface so clients can point at a fleet or a single
// shard interchangeably, plus fleet-only routes (/api/v1/shards).
// Tenancy is carried in the X-Tenant header; absent means "default".
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			g.handleSubmit(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, g.Jobs())
		default:
			w.Header().Set("Allow", "GET, POST")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		}
	})
	mux.HandleFunc("/api/v1/jobs/", g.handleJob)
	mux.HandleFunc("/api/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		writeJSON(w, http.StatusOK, g.Shards())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", service.ExpositionContentType)
		fmt.Fprint(w, g.metrics.Render(time.Now()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"shards": len(g.Shards()),
		})
	})
	return mux
}

// handleSubmit admits one job. Admission refusals are 429 with a
// Retry-After hint; oversized bodies are 413.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec service.JobSpec
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job spec exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	tenant := strings.TrimSpace(r.Header.Get("X-Tenant"))
	st, err := g.Submit(tenant, spec)
	var rej *RejectedError
	switch {
	case errors.As(err, &rej):
		w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleJob serves /api/v1/jobs/{id}[/result|/cancel].
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	id, action, _ := strings.Cut(rest, "/")
	switch action {
	case "":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		st, err := g.Get(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case "result":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		res, err := g.Result(id)
		switch {
		case errors.Is(err, ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotDone):
			writeErr(w, http.StatusConflict, err)
		case err != nil:
			writeErr(w, http.StatusInternalServerError, err)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(res)
		}
	case "frames":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		g.proxyFrames(w, r, id)
	case "cancel":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		st, err := g.Cancel(id)
		switch {
		case errors.Is(err, ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrTerminal):
			writeErr(w, http.StatusConflict, err)
		default:
			writeJSON(w, http.StatusOK, st)
		}
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown action %q", action))
	}
}

// proxyFrames streams the frame-store replay endpoint of the shard that
// holds (or held) a gateway job. The gateway owns no frame data itself
// beyond the single replicated resume keyframe, so replay is proxied to
// the shard's own HTTP API, preserving the query string and the Accept
// header; the body is copied through without buffering so tail-follow
// streams work end to end.
func (g *Gateway) proxyFrames(w http.ResponseWriter, r *http.Request, id string) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		writeErr(w, http.StatusNotFound, ErrNotFound)
		return
	}
	addr, localID := j.FramesAddr, j.LocalID
	g.mu.Unlock()
	if addr == "" || localID == "" {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("fabric: job %s has no shard frame store to replay from (never accepted by a shard, or the shard advertises no HTTP address)", id))
		return
	}
	target := "http://" + addr + "/api/v1/jobs/" + localID + "/frames"
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("building shard request: %w", err))
		return
	}
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("reaching shard frame store: %w", err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	// Flush eagerly: tail-follow replays emit one line per simulation
	// step and the client wants each as it lands, not a buffered burst.
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// retryAfterSeconds formats a Retry-After header value, rounding up so
// clients never retry before the hint allows.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// apiError is the JSON error envelope, matching the shard API.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}
