package transport

import (
	"net"
	"testing"
	"time"
)

// silentCoordinator accepts one worker join, completes the handshake,
// and then — depending on pong — either answers liveness probes through
// the shared reader or goes completely silent. It returns the listen
// address.
func silentCoordinator(t *testing.T, pong bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		kind, _, err := ReadRaw(c)
		if err != nil || kind != KindHello {
			return
		}
		buf, err := AppendControl(nil, KindWelcome, welcomeBody{
			ProcID: 1,
			Addrs:  []string{"coordinator", "worker"},
		})
		if err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
		if pong {
			NewLive(c, 1, new(Metrics)).Read(func(uint8, []byte) error { return nil })
			return
		}
		for {
			if _, _, err := ReadRaw(c); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// joinWatching joins addr with the given heartbeat settings and returns
// the node plus a channel carrying its first fatal link error.
func joinWatching(t *testing.T, addr string, interval, timeout time.Duration) (*Node, chan error) {
	t.Helper()
	n, err := Join(addr, Config{
		ListenAddr:        "127.0.0.1:0",
		HeartbeatInterval: interval,
		HeartbeatTimeout:  timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	errs := make(chan error, 4)
	n.SetErrorHandler(func(err error) { errs <- err })
	return n, errs
}

// TestHeartbeatWatchdogFires: a peer that stops answering probes is
// declared dead with a FaultHeartbeat error.
func TestHeartbeatWatchdogFires(t *testing.T) {
	addr := silentCoordinator(t, false)
	_, errs := joinWatching(t, addr, 20*time.Millisecond, 80*time.Millisecond)
	select {
	case err := <-errs:
		if k := FaultKindOf(err); k != FaultHeartbeat {
			t.Fatalf("fault kind = %v, want heartbeat: %v", k, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never declared dead")
	}
}

// TestHeartbeatDisabledDisablesWatchdog is the regression for the
// coupled-disable bug: a negative HeartbeatInterval turns off the
// probes, so the staleness watchdog must be off too — with no probes
// manufacturing traffic, an idle healthy peer looks exactly like a dead
// one and a lone timeout check would kill every quiet connection.
func TestHeartbeatDisabledDisablesWatchdog(t *testing.T) {
	addr := silentCoordinator(t, false)
	// Timeout far below the idle period: if any timeout path survived
	// the disable, it would fire well within the sleep.
	n, errs := joinWatching(t, addr, -1, 30*time.Millisecond)
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("disabled heartbeats still declared the peer dead: %v", err)
	default:
	}
	if got := n.Metrics().Snapshot().Heartbeats; got != 0 {
		t.Fatalf("probes sent with heartbeats disabled: %d", got)
	}
}

// TestHeartbeatIntervalLongerThanTimeout: with probes spaced wider than
// the raw timeout, a healthy (ponging) peer must not be declared dead —
// the liveness deadline has to leave room for one full probe
// round-trip.
func TestHeartbeatIntervalLongerThanTimeout(t *testing.T) {
	addr := silentCoordinator(t, true)
	_, errs := joinWatching(t, addr, 120*time.Millisecond, 40*time.Millisecond)
	time.Sleep(500 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("healthy peer declared dead under interval > timeout: %v", err)
	default:
	}
}
