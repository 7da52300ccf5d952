package transport

import (
	"net"
	"sync/atomic"
	"time"
)

// Live is one end of a frame conn under the one liveness protocol every
// conn here speaks: a machine conn between two Nodes and a fabric conn
// between the gateway and a shard alike. Its reader, Read, stamps the
// time of the conn's last inbound frame, answers a ping with a pong,
// observes the round trip of its own pings, ends on Bye, and hands data
// and host frames to the conn's owner. Its keeper, Keep, pings the far
// end every interval and fails the conn once it has been silent past a
// deadline. Liveness frames never draw a FaultConn's dice, so how often
// a keeper pings changes no fault schedule.
type Live struct {
	conn   net.Conn
	peer   int // proc at the far end, for errors; -1 off a machine
	m      *Metrics
	last   atomic.Int64 // unix nanos of the last inbound frame
	silent atomic.Pointer[TransportError]
	done   chan struct{} // closed when Read returns
}

// NewLive puts conn to peer under the liveness protocol, counting its
// traffic into m, or nowhere when m is nil. The conn counts as heard
// from now.
func NewLive(conn net.Conn, peer int, m *Metrics) *Live {
	l := &Live{conn: conn, peer: peer, m: m, done: make(chan struct{})}
	l.last.Store(time.Now().UnixNano())
	return l
}

// Write writes one encoded frame and counts it. It needs no lock: a
// net.Conn writes each buffer whole, so frames from concurrent writers
// never interleave.
func (l *Live) Write(buf []byte) error { return writeFrame(l.conn, l.m, buf) }

// writeFrame writes one encoded frame on c and counts it into m, if any.
func writeFrame(c net.Conn, m *Metrics, buf []byte) error {
	_, err := c.Write(buf)
	if err == nil && m != nil {
		m.FramesSent.Add(1)
		m.BytesSent.Add(int64(len(buf)))
	}
	return err
}

// Close closes the conn; with bye it first tells the far end, waiting at
// most a second for the write, so the far end's reader ends quietly
// instead of failing.
func (l *Live) Close(bye bool) {
	if bye {
		if buf, err := AppendControl(nil, KindBye, nil); err == nil {
			l.conn.SetWriteDeadline(time.Now().Add(time.Second))
			l.Write(buf)
		}
	}
	l.conn.Close()
}

// Read reads the conn until it fails or the far end says Bye, handing
// each data and host frame to deliver and skipping unknown kinds, for
// forward compatibility. It then closes the conn, so the far end's
// writes fail instead of waiting on a reader that is gone. It returns
// nil after a Bye and deliver's error when deliver fails; otherwise a
// TransportError: a heartbeat fault when the keeper found the conn
// silent, an injected fault as injected, and peer loss for anything
// else.
func (l *Live) Read(deliver func(kind uint8, body []byte) error) error {
	defer close(l.done)
	defer l.conn.Close()
	for {
		kind, body, err := ReadRaw(l.conn)
		if err != nil {
			if silent := l.silent.Load(); silent != nil {
				return silent
			}
			return connLost(err, l.peer, "connection lost to")
		}
		now := time.Now()
		l.last.Store(now.UnixNano())
		if l.m != nil {
			l.m.FramesRecv.Add(1)
			l.m.BytesRecv.Add(int64(len(body)) + frameHeaderLen)
		}
		switch kind {
		case KindData, KindHost:
			if err := deliver(kind, body); err != nil {
				return err
			}
		case KindPing:
			if reply, err := AppendControl(nil, KindPong, pingOf(body)); err == nil {
				l.Write(reply)
			}
		case KindPong:
			if rtt := now.Sub(time.Unix(0, pingOf(body).Nanos)); rtt > 0 && l.m != nil {
				l.m.ObserveRTT(rtt.Seconds())
			}
		case KindBye:
			return nil
		}
	}
}

// pingOf decodes a ping or pong body; a corrupt one reads as zero
// (liveness probes are best-effort).
func pingOf(body []byte) pingBody {
	v, _ := Unmarshal(body)
	p, _ := v.(pingBody)
	return p
}

// Keep runs the conn's keeper until Read returns or stop closes: it
// pings every interval (never when interval <= 0), and once no frame has
// arrived for longer than deadline (never when deadline <= 0) it fails
// the conn with a heartbeat fault, which the Read it ends returns. It
// checks four times per deadline. A stop says Bye and closes the conn.
// The pings go out from a goroutine of their own, which Keep waits for,
// so a ping stuck behind a full send buffer never delays the check that
// will close the conn under it.
func (l *Live) Keep(interval, deadline time.Duration, stop <-chan struct{}) {
	if interval > 0 {
		pinged := make(chan struct{})
		go func() {
			defer close(pinged)
			l.ping(interval)
		}()
		defer func() { <-pinged }()
	}
	var check <-chan time.Time
	if deadline > 0 {
		t := time.NewTicker(max(deadline/4, 5*time.Millisecond))
		defer t.Stop()
		check = t.C
	}
	for {
		select {
		case <-l.done:
			return
		case <-stop:
			l.Close(true)
			return
		case now := <-check:
			if idle := now.Sub(time.Unix(0, l.last.Load())); idle > deadline {
				l.silent.Store(faultErr(FaultHeartbeat, l.peer, "silent for %v (deadline %v)", idle.Round(time.Millisecond), deadline))
				l.conn.Close()
				return
			}
		}
	}
}

// ping pings the far end every interval until Read returns.
func (l *Live) ping(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case now := <-t.C:
			buf, err := AppendControl(nil, KindPing, pingBody{Nanos: now.UnixNano()})
			if err == nil && l.Write(buf) == nil && l.m != nil {
				l.m.Heartbeats.Add(1)
			}
		}
	}
}
