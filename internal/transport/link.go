package transport

// Link is a process's endpoint in a machine spread across OS processes.
// Procs are numbered 0..NumProcs-1; proc 0 is the coordinator. Data
// frames carry simulated-machine messages and are delivered to the
// handler installed with SetDataHandler; host messages are an untimed
// control channel (job setup, result gathers) read via HostRecv.
//
// A Link knows processes, not ranks: it is the one seam between a
// simulated machine and the wire. msg.NewNetworkMachine sits on it
// directly, maps each rank to the process that hosts it, stamps its
// job's epoch on every data frame and drops frames of other epochs.
//
// Node is the one implementation, over TCP or over NewMesh's in-memory
// pipes alike; wrappers such as obsv's tracer delegate to it. It encodes
// every payload through the codec registry at send time, so a payload
// that crosses a Link never aliases sender memory.
type Link interface {
	// ProcID returns this process's index in the machine.
	ProcID() int
	// NumProcs returns the number of processes in the machine.
	NumProcs() int
	// SendData ships a data frame to another process.
	SendData(dst int, f *Frame) error
	// SetDataHandler installs the delivery callback for incoming data
	// frames. Must be called before traffic starts; the handler may be
	// invoked from multiple reader goroutines concurrently.
	SetDataHandler(fn func(*Frame))
	// SetErrorHandler installs the callback invoked when the link
	// fails (peer gone, read error, heartbeat timeout). Invoked at
	// most once per failing peer.
	SetErrorHandler(fn func(err error))
	// HostSend ships an untimed control message to another process.
	HostSend(dst int, payload any) error
	// HostRecv blocks for the next control message from any process,
	// returning the sender's proc ID. It returns an error once the
	// link is closed or fails.
	HostRecv() (src int, payload any, err error)
	// Metrics exposes the link's host-side counters.
	Metrics() *Metrics
	// Close tears the link down gracefully: peers observe an orderly
	// goodbye, not a failure.
	Close() error
	// Abort tears the link down ungracefully, as if this process had
	// crashed: no goodbye is sent, so peers observe a failure and any
	// rank blocked on traffic from this process unwinds. err is the
	// reason recorded on the local host channel. Used by supervisors to
	// demolish a faulted machine generation before rebuilding it.
	Abort(err error)
}
