// Package transport is the point-to-point wire layer under the msg
// Machine: a typed binary codec for every payload the SPMD formulations
// exchange, a length-prefixed frame format, and the one
// process-to-process link, Node, with per-peer connection management
// (dial retry with exponential backoff, heartbeats, graceful close) over
// TCP sockets — or over in-memory pipes for a machine inside one process
// (NewMesh), where FaultConn injects a seeded FaultPlan under its conns.
//
// The two-clock rule extends here: everything in this package belongs to
// the *host* clock. The simulated interconnect (ts + tw·m + th·hops) is
// charged by package msg at send time and travels inside the frame as a
// precomputed arrival timestamp, so the simulated time, interaction
// stats, and communication volumes of a run are bit-identical whether
// the machine's ranks share one process or are spread across many.
// Frames, bytes, dials, retries, and heartbeat RTTs are host-side
// observability only, exported through Metrics.
package transport

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/recio"
)

// Type IDs are fixed, process-independent, and must never be reused for
// a different encoding: both ends of a connection resolve payloads by
// these numbers alone. Blocks are assigned per package:
//
//	1–20   transport built-ins (scalars, plain slices)
//	21–30  internal/msg collective envelopes
//	31–50  internal/parbh wire structs
//	51–60  internal/cluster control messages
//	61–80  internal/fabric gateway/shard control messages
//
// ID 0 is reserved for nil.
const (
	idNil     uint16 = 0
	idBool    uint16 = 1
	idInt     uint16 = 2
	idInt32   uint16 = 3
	idInt64   uint16 = 4
	idUint64  uint16 = 5
	idFloat64 uint16 = 6
	idString  uint16 = 7
	idBytes   uint16 = 8
	idInts    uint16 = 9
	idInt32s  uint16 = 10
	idUint64s uint16 = 11
	idF64s    uint16 = 12
	idF64x2   uint16 = 13
	idEmpty   uint16 = 14
)

// codecEntry binds one concrete Go type to its wire identity.
type codecEntry struct {
	id   uint16
	name string
	enc  func(*recio.Coder, any)
	dec  func(*recio.Coder) any
}

var registry struct {
	sync.RWMutex
	byType map[reflect.Type]*codecEntry
	byID   map[uint16]*codecEntry
}

func init() {
	registry.byType = make(map[reflect.Type]*codecEntry)
	registry.byID = make(map[uint16]*codecEntry)
	registerBuiltins()
}

// Register binds type T to a fixed wire ID and to the one function that
// lists its fields, which both directions run (see recio.Coder). It
// panics on a duplicate ID or type: wire identities are global constants,
// and a collision is a build-time bug, not a runtime condition. Packages
// register their payload types from init.
func Register[T any](id uint16, code func(*recio.Coder, *T)) {
	var zero T
	typ := reflect.TypeOf(zero)
	if typ == nil {
		panic("transport: cannot register interface type")
	}
	// code is an opaque call, so the value it is pointed at lives on the
	// heap. Recycling those boxes keeps an encode free of allocations and
	// a decode at the one that boxes the result.
	scratch := sync.Pool{New: func() any { return new(T) }}
	e := &codecEntry{
		id:   id,
		name: typ.String(),
		enc: func(c *recio.Coder, v any) {
			p := scratch.Get().(*T)
			*p = v.(T)
			code(c, p)
			*p = zero
			scratch.Put(p)
		},
		dec: func(c *recio.Coder) any {
			p := scratch.Get().(*T)
			code(c, p)
			v := any(*p)
			*p = zero
			scratch.Put(p)
			return v
		},
	}
	registry.Lock()
	defer registry.Unlock()
	if id == idNil {
		panic("transport: wire ID 0 is reserved for nil")
	}
	if prev, ok := registry.byID[id]; ok {
		panic(fmt.Sprintf("transport: wire ID %d already bound to %s", id, prev.name))
	}
	if prev, ok := registry.byType[typ]; ok {
		panic(fmt.Sprintf("transport: type %s already registered as ID %d", typ, prev.id))
	}
	registry.byID[id] = e
	registry.byType[typ] = e
}

// Registered reports whether v's concrete type has a codec. A nil value
// is always encodable.
func Registered(v any) bool {
	if v == nil {
		return true
	}
	registry.RLock()
	defer registry.RUnlock()
	_, ok := registry.byType[reflect.TypeOf(v)]
	return ok
}

// WireIDs returns every registered wire ID in increasing order.
func WireIDs() []uint16 {
	registry.RLock()
	defer registry.RUnlock()
	ids := make([]uint16, 0, len(registry.byID))
	for id := range registry.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TypeName returns the registered name for diagnostics, or the
// reflected type when unregistered.
func TypeName(v any) string {
	if v == nil {
		return "nil"
	}
	return reflect.TypeOf(v).String()
}

// encodeAny writes v's wire ID and body. It returns an error for
// unregistered types — the caller decides whether that is fatal (a
// remote send) or fine (an in-process reference pass).
func encodeAny(c *recio.Coder, v any) error {
	if v == nil {
		c.W.U16(idNil)
		return nil
	}
	registry.RLock()
	e, ok := registry.byType[reflect.TypeOf(v)]
	registry.RUnlock()
	if !ok {
		return fmt.Errorf("transport: no codec registered for %s", reflect.TypeOf(v))
	}
	c.W.U16(e.id)
	e.enc(c, v)
	return nil
}

// decodeAny reads one value written by encodeAny.
func decodeAny(c *recio.Coder) (any, error) {
	id := c.R.U16()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if id == idNil {
		return nil, nil
	}
	registry.RLock()
	e, ok := registry.byID[id]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown wire ID %d", id)
	}
	v := e.dec(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// Any codes a nested payload of any registered type, wire ID first — the
// field form of Marshal and Unmarshal, for envelopes that forward what
// they are handed. A codec function has no error path, so encoding an
// unregistered type panics with its name (the codec exhaustiveness tests
// keep that out of production paths); a decode failure sticks to c.
func Any(c *recio.Coder, v *any) {
	if !c.Decoding {
		if err := encodeAny(c, *v); err != nil {
			panic(err.Error())
		}
		return
	}
	var err error
	if *v, err = decodeAny(c); err != nil {
		c.R.Fail("%w", err)
	}
}

// Marshal encodes a single registered value to bytes.
func Marshal(v any) ([]byte, error) {
	c := &recio.Coder{}
	if err := encodeAny(c, v); err != nil {
		return nil, err
	}
	return c.W.B, nil
}

// Unmarshal decodes a single value from bytes, requiring full
// consumption of the input.
func Unmarshal(b []byte) (any, error) {
	c := recio.Decoder(b)
	v, err := decodeAny(c)
	if err != nil {
		return nil, err
	}
	if c.R.Remaining() != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after payload", c.R.Remaining())
	}
	return v, nil
}

// RoundTrip deep-copies a registered value through its codec: the
// canonical "fully encoded at send time" semantics. The returned value
// shares no mutable state with the input.
func RoundTrip(v any) (any, error) {
	b, err := Marshal(v)
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}

// registerBuiltins installs codecs for the scalar and plain-slice
// payloads the collectives exchange.
func registerBuiltins() {
	Register(idBool, (*recio.Coder).Bool)
	Register(idInt, recio.Int64[int])
	Register(idInt32, (*recio.Coder).I32)
	Register(idInt64, (*recio.Coder).I64)
	Register(idUint64, (*recio.Coder).U64)
	Register(idFloat64, (*recio.Coder).F64)
	Register(idString, (*recio.Coder).Str)
	Register(idBytes, (*recio.Coder).Bytes)
	Register(idInts, func(c *recio.Coder, v *[]int) { recio.Slice(c, v, 8, recio.Int64[int]) })
	Register(idInt32s, (*recio.Coder).I32s)
	Register(idUint64s, func(c *recio.Coder, v *[]uint64) { recio.Slice(c, v, 8, (*recio.Coder).U64) })
	Register(idF64s, (*recio.Coder).F64s)
	Register(idF64x2, func(c *recio.Coder, v *[2]float64) {
		c.F64(&v[0])
		c.F64(&v[1])
	})
	Register(idEmpty, func(*recio.Coder, *struct{}) {})
}
