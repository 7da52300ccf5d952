package obsv

import (
	"time"

	"repro/internal/transport"
)

// TraceLink wraps a transport.Link recording host-clock events at the
// wire seam: a span per outgoing data frame (the real serialization +
// socket time, as opposed to the modelled transfer time the simulated
// clock charges), an instant per delivered frame, and instants for the
// untimed host control channel and link failures. Simulated-clock
// accounting is computed on the sender above this layer (msg.Proc.Send)
// and is untouched by the wrapper.
type TraceLink struct {
	inner transport.Link
	tr    *Tracer
}

// WrapLink wraps l so its traffic is recorded on tr's host clock. A nil
// tracer returns l unchanged.
func WrapLink(l transport.Link, tr *Tracer) transport.Link {
	if tr == nil {
		return l
	}
	return &TraceLink{inner: l, tr: tr}
}

// ProcID returns the wrapped link's process index.
func (t *TraceLink) ProcID() int { return t.inner.ProcID() }

// NumProcs returns the machine size.
func (t *TraceLink) NumProcs() int { return t.inner.NumProcs() }

// Metrics exposes the wrapped link's counters.
func (t *TraceLink) Metrics() *transport.Metrics { return t.inner.Metrics() }

// SendData ships a data frame, recording a host span covering encode +
// socket handoff.
func (t *TraceLink) SendData(dst int, f *Frame) error {
	start := time.Now()
	err := t.inner.SendData(dst, f)
	args := []Arg{Int("dst", dst), Int("tag", int(f.Tag)), Int("words", int(f.Words))}
	if err != nil {
		args = append(args, Str("err", err.Error()))
	}
	t.tr.HostSpan(t.inner.ProcID(), "send frame", "transport", start, time.Now(), args...)
	return err
}

// SetDataHandler installs fn, interposing a delivery instant per frame.
func (t *TraceLink) SetDataHandler(fn func(*Frame)) {
	me := t.inner.ProcID()
	t.inner.SetDataHandler(func(f *Frame) {
		t.tr.HostInstant(me, "recv frame", "transport", time.Now(),
			Int("src", int(f.Src)), Int("tag", int(f.Tag)), Int("words", int(f.Words)))
		fn(f)
	})
}

// SetErrorHandler installs fn, recording link failures as instants.
func (t *TraceLink) SetErrorHandler(fn func(error)) {
	me := t.inner.ProcID()
	t.inner.SetErrorHandler(func(err error) {
		t.tr.HostInstant(me, "link error", "transport", time.Now(), Str("err", err.Error()))
		fn(err)
	})
}

// HostSend ships a control message, recording an instant.
func (t *TraceLink) HostSend(dst int, payload any) error {
	t.tr.HostInstant(t.inner.ProcID(), "host send", "control", time.Now(), Int("dst", dst))
	return t.inner.HostSend(dst, payload)
}

// HostRecv blocks for the next control message, recording an instant on
// successful receipt.
func (t *TraceLink) HostRecv() (int, any, error) {
	src, payload, err := t.inner.HostRecv()
	if err == nil {
		t.tr.HostInstant(t.inner.ProcID(), "host recv", "control", time.Now(), Int("src", src))
	}
	return src, payload, err
}

// Close tears the link down gracefully.
func (t *TraceLink) Close() error {
	t.tr.HostInstant(t.inner.ProcID(), "close", "control", time.Now())
	return t.inner.Close()
}

// Abort tears the link down as a crash.
func (t *TraceLink) Abort(err error) {
	t.tr.HostInstant(t.inner.ProcID(), "abort", "control", time.Now(), Str("err", err.Error()))
	t.inner.Abort(err)
}

// Frame aliases transport.Frame so the wrapper's method set reads
// naturally at call sites inside this package.
type Frame = transport.Frame
