package main

import (
	"os"
	"strings"
	"time"

	"repro/internal/obsv"
)

// spans is the traced run's in-memory span store. Every span carries its
// name ("layer.op"), start, end, the name of the span that caused it and
// the workload unit (step or job) it belongs to; the store is written as
// a Chrome/Perfetto trace when the child ends. The benchmark records
// spans around its own calls into each layer — spans inside the program
// are ROADMAP item 6. A nil *spans records nothing.
//
// Not safe for concurrent use: workloads with concurrent clients collect
// timestamps first and emit their spans afterwards.
type spans struct {
	tr *obsv.Tracer
	// total and children are per span name: the summed duration of the
	// spans, and of the spans naming it as parent. A layer's self time is
	// its spans minus the part its children cover.
	total    map[string]time.Duration
	children map[string]time.Duration
}

func newSpans() *spans {
	return &spans{
		tr:       obsv.New(),
		total:    map[string]time.Duration{},
		children: map[string]time.Duration{},
	}
}

// add records one completed span on a track (0 = the benchmark's own
// goroutine / client view, 1.. = server-side views).
func (s *spans) add(track int, name, parent string, unit int, start, end time.Time) {
	if s == nil {
		return
	}
	args := []obsv.Arg{obsv.Int("unit", unit)}
	if parent != "" {
		args = append(args, obsv.Str("parent", parent))
		s.children[parent] += end.Sub(start)
	}
	s.tr.HostSpan(track, name, layerOf(name), start, end, args...)
	s.total[name] += end.Sub(start)
}

// self is the summed self time of a span name in seconds.
func (s *spans) self(name string) float64 {
	return (s.total[name] - s.children[name]).Seconds()
}

// layerOf is the module prefix of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the trace at path in Chrome trace-event JSON.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
