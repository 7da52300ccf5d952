package transport

import (
	"errors"
	"fmt"
)

// FaultKind classifies a transport failure. The kind is what a
// supervisor keys recovery policy on: everything except FaultClosed is
// a fault of the interconnect or a peer and is worth retrying after a
// rebuild; FaultClosed means this endpoint was torn down deliberately.
type FaultKind int

const (
	FaultNone      FaultKind = iota
	FaultPeerLost            // connection reset, read error, peer process gone
	FaultHeartbeat           // liveness probe timeout: peer silent too long
	FaultCorrupt             // frame failed to decode (injected or real bit rot)
	FaultPartition           // full partition: no traffic crosses the link
	FaultStall               // control-protocol or step deadline expired
	FaultClosed              // link closed locally
)

var faultNames = [...]string{"none", "peer_lost", "heartbeat", "corrupt", "partition", "stall", "closed"}

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// TransportError is a structured transport failure: which kind of fault,
// which peer (or -1 when unknown / not peer-specific), and the
// underlying cause. Machine and engine layers propagate it unchanged so
// the service layer can decide whether a failed job is retryable.
type TransportError struct {
	Kind FaultKind
	Proc int // peer proc ID, -1 if unknown
	Err  error
}

func (e *TransportError) Error() string {
	if e.Proc >= 0 {
		return fmt.Sprintf("transport: %s (proc %d): %v", e.Kind, e.Proc, e.Err)
	}
	return fmt.Sprintf("transport: %s: %v", e.Kind, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// faultErr builds a TransportError with a formatted cause.
func faultErr(kind FaultKind, proc int, format string, args ...any) *TransportError {
	return &TransportError{Kind: kind, Proc: proc, Err: fmt.Errorf(format, args...)}
}

// FaultKindOf extracts the fault kind carried by err, or FaultNone if
// err has no TransportError in its chain.
func FaultKindOf(err error) FaultKind {
	var te *TransportError
	if errors.As(err, &te) {
		return te.Kind
	}
	return FaultNone
}

// Retryable reports whether err is a transport-class failure that a
// supervisor can reasonably retry by rebuilding the machine: a fault of
// the interconnect or a peer, not a deliberate local close and not an
// application error.
func Retryable(err error) bool {
	k := FaultKindOf(err)
	return k != FaultNone && k != FaultClosed
}
