package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/recio"
)

// Frame kinds. Data frames carry a simulated-machine message between
// two ranks; host frames carry untimed control traffic between
// processes (job setup, result gathers). The rest are connection
// plumbing: the join handshake, liveness probes, and graceful close.
const (
	KindData    uint8 = 1
	KindHost    uint8 = 2
	KindHello   uint8 = 3 // worker → coordinator: join request
	KindWelcome uint8 = 4 // coordinator → worker: proc ID + topology
	KindIdent   uint8 = 5 // first frame on a dialed conn: who is calling
	KindPing    uint8 = 6
	KindPong    uint8 = 7
	KindBye     uint8 = 8 // graceful close
)

// MaxFrame caps the decoded size of a single frame body: the one record
// cap of the byte layer, so a corrupt or hostile length prefix cannot
// drive an allocation beyond it on a socket any more than in a file.
const MaxFrame = recio.MaxBody

// frameHeaderLen is the wire overhead per frame: u32 body length plus
// u8 kind. Sockets carry no checksum (TCP has its own), which is why this
// header is not a recio record.
const frameHeaderLen = 5

// beginFrame starts a frame of the given kind at the end of what c has
// encoded and returns where it starts; the caller encodes any fixed
// fields and hands the coder to finishFrame.
func beginFrame(c *recio.Coder, kind uint8) int {
	start := len(c.W.B)
	c.W.U32(0) // body length, patched by finishFrame
	c.W.U8(kind)
	return start
}

// finishFrame encodes payload behind what c already holds of the frame
// begun at start and patches the body length. On failure it cuts the
// frame off again and returns the reason.
func finishFrame(c *recio.Coder, start int, payload any) error {
	err := encodeAny(c, payload)
	body := len(c.W.B) - start - frameHeaderLen
	if err == nil && body > MaxFrame {
		err = fmt.Errorf("transport: frame body %d exceeds MaxFrame %d", body, MaxFrame)
	}
	if err != nil {
		c.W.B = c.W.B[:start]
		return err
	}
	binary.LittleEndian.PutUint32(c.W.B[start:], uint32(body))
	return nil
}

// Frame is one simulated-machine message in flight between processes.
// Src/Dst are machine ranks; Arrival is the simulated-clock delivery
// timestamp, computed on the sender under the machine's cost model so
// that the simulated interconnect is independent of the real one.
// Epoch tags the job incarnation: frames from a previous job on a
// reused connection are dropped by the receiver. Seq is a per-conn
// sequence number a FaultConn stamps so the receiving node can drop
// duplicated deliveries; 0 means unset and is never deduplicated.
type Frame struct {
	Epoch   uint32
	Seq     uint32
	Src     int32
	Dst     int32
	Tag     int32
	Words   int32
	Arrival float64
	Payload any
}

// codeFrameHeader lists the fixed fields that precede a data frame's
// payload.
func codeFrameHeader(c *recio.Coder, f *Frame) {
	c.U32(&f.Epoch)
	c.U32(&f.Seq)
	c.I32(&f.Src)
	c.I32(&f.Dst)
	c.I32(&f.Tag)
	c.I32(&f.Words)
	c.F64(&f.Arrival)
}

// AppendFrame encodes f as a length-prefixed data frame onto buf.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	c := &recio.Coder{W: recio.Writer{B: buf}}
	if err := encodeFrame(c, f); err != nil {
		return buf, err
	}
	return c.W.B, nil
}

// encodeFrame encodes f as a data frame behind what c has encoded.
func encodeFrame(c *recio.Coder, f *Frame) error {
	start := beginFrame(c, KindData)
	codeFrameHeader(c, f)
	return finishFrame(c, start, f.Payload)
}

// DecodeFrame parses a data-frame body produced by AppendFrame (the
// bytes after the header). It never panics on corrupt input and never
// allocates beyond the input size plus decoded-value overhead.
func DecodeFrame(body []byte) (*Frame, error) {
	if len(body) > MaxFrame {
		return nil, fmt.Errorf("transport: frame body %d exceeds MaxFrame %d", len(body), MaxFrame)
	}
	c := recio.Decoder(body)
	f := &Frame{}
	codeFrameHeader(c, f)
	if err := c.Err(); err != nil {
		return nil, err
	}
	p, err := decodeAny(c)
	if err != nil {
		return nil, err
	}
	if c.R.Remaining() != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after frame payload", c.R.Remaining())
	}
	f.Payload = p
	return f, nil
}

// AppendControl encodes a non-data frame: kind plus an optional
// registered payload (host messages, hello/welcome bodies) or raw bytes
// (ping/pong timestamps).
func AppendControl(buf []byte, kind uint8, payload any) ([]byte, error) {
	c := &recio.Coder{W: recio.Writer{B: buf}}
	if err := finishFrame(c, beginFrame(c, kind), payload); err != nil {
		return buf, err
	}
	return c.W.B, nil
}

// ReadRaw reads one length-prefixed frame from r, returning its kind
// and body bytes. Lengths beyond MaxFrame are rejected before any
// allocation.
func ReadRaw(r io.Reader) (kind uint8, body []byte, err error) { return readFrame(r, nil) }

// readFrame reads one frame from r like ReadRaw, into buf when the frame
// fits there: the body it returns aliases buf or, when buf is too small,
// a buffer of its own, at least twice buf's size up to keepBuf, so a
// reader whose frames grow reallocates a few times, not once a frame.
func readFrame(r io.Reader, buf []byte) (kind uint8, body []byte, err error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	kind = hdr[4]
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("transport: incoming frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n, max(int(n), min(2*cap(buf), keepBuf)))
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return kind, body, nil
}
