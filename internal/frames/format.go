// Package frames is the columnar frame store: the time-series output
// layer of the simulation service. A frame file is an append-only chain
// of internal/recio records — the CRC framing the gateway journal shares
// — holding per-field particle columns (positions, velocities, mass as
// contiguous []float64, the same structure-of-arrays transposition
// dist.Particles uses in RAM) plus a per-frame metrics header that is a
// superset of the root package's HistoryEntry.
//
// Keyframes carry full columns; the frames between two keyframes are
// delta-encoded as XOR-of-Float64bits against the previous frame.
// Small-displacement steps share sign, exponent, and the high mantissa
// bits with their predecessor, so the XOR image is mostly leading-zero
// bytes and packs hard — while round-tripping bit-identically, which is
// what lets a resumed job replay to the same GOLDEN simulated metrics
// as an uninterrupted one.
//
// Layout:
//
//	magic "NBF1"
//	record := recio record, by kind:
//	  kind 1 keyframe: meta | u32 n | id[n]i32 | 7 × col[n]f64
//	  kind 2 delta:    meta | u32 n | idTag(+ids) | 7 × packed column
//	  kind 3 index:    u32 count | count × (i64 step, i64 offset)
//	trailer (after the index record, clean close only):
//	  [i64 indexOffset][u32 crc32c(indexOffset)][u32 "NBFX"]
//
// A torn tail (recio.ErrTorn: a record cut short by a crash, or one whose
// CRC fails at end-of-file) is detected and dropped, never poisoning the
// chain; everything before it reads clean. The index record plus trailer
// give clean-close opens an O(log n) seek-to-step; crashed files rebuild
// the index with one forward scan.
package frames

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dist"
	"repro/internal/recio"
	"repro/internal/vec"
)

// File framing constants.
const (
	magic        = "NBF1"
	trailerMagic = 0x5846424E // "NBFX" little-endian
	trailerLen   = 16         // i64 index offset + u32 crc + u32 magic

	recKeyframe = 1
	recDelta    = 2
	recIndex    = 3

	// MaxRecord bounds one record body before any allocation: the one
	// cap of the byte layer.
	MaxRecord = recio.MaxBody
)

// Magic returns the file magic, for callers emitting a frame stream
// over a transport other than a file (the replay API's binary mode).
func Magic() []byte { return []byte(magic) }

// ErrCorrupt reports a structurally invalid record in the middle of a
// frame file (a failed CRC or malformed body that cannot be a torn
// tail). Tails cut short by a crash are not corruption; they are
// silently dropped on open and reported as io.EOF when streaming.
var ErrCorrupt = errors.New("frames: corrupt record")

// Meta is the per-frame metrics header: the job's clock state plus the
// last step's simulated-machine measurements, a superset of the root
// package's HistoryEntry. MachineTime is the cumulative simulated
// machine seconds across completed steps — restoring the accumulator
// from here preserves the floating-point summation order, so a resumed
// job's final MachineTime is bit-equal to an uninterrupted run's.
type Meta struct {
	Step        int64
	Time        float64
	SimTime     float64
	MachineTime float64
	Energy      float64
	Efficiency  float64
	Imbalance   float64
	CommWords   int64
	MACTests    int64
	PC          int64
	PP          int64
	Domain      vec.Box
}

// metaLen is the fixed encoded size of Meta: 11 scalar fields plus the
// 6 floats of the domain box, 8 bytes each.
const metaLen = 17 * 8

// Frame is one decoded frame: its metrics header and the particle
// columns, in the same structure-of-arrays layout the compute kernels
// iterate.
type Frame struct {
	Meta  Meta
	Parts dist.Particles
}

// numCols is the number of float64 columns per frame (mass, pos, vel).
const numCols = 7

// cols returns the frame's float64 columns in serialization order.
func (f *Frame) cols() [numCols]*[]float64 {
	p := &f.Parts
	return [numCols]*[]float64{&p.Mass, &p.PosX, &p.PosY, &p.PosZ, &p.VelX, &p.VelY, &p.VelZ}
}

// codeMeta lists the fixed-size metrics header.
func codeMeta(c *recio.Coder, m *Meta) {
	c.I64(&m.Step)
	c.F64(&m.Time)
	c.F64(&m.SimTime)
	c.F64(&m.MachineTime)
	c.F64(&m.Energy)
	c.F64(&m.Efficiency)
	c.F64(&m.Imbalance)
	c.I64(&m.CommWords)
	c.I64(&m.MACTests)
	c.I64(&m.PC)
	c.I64(&m.PP)
	c.V3(&m.Domain.Min)
	c.V3(&m.Domain.Max)
}

// beginFrameRecord starts a keyframe or delta record at the end of b —
// the reserved header, the metrics header, the particle count — and
// returns the writer the columns go behind.
func beginFrameRecord(b []byte, f *Frame) recio.Writer {
	c := recio.Coder{W: recio.Writer{B: recio.Begin(b)}}
	codeMeta(&c, &f.Meta)
	c.W.U32(uint32(f.Parts.Len()))
	return c.W
}

// readFrameHeader decodes what beginFrameRecord wrote into m and returns
// the reader, positioned at the columns, with the particle count.
func readFrameHeader(body []byte, m *Meta, what string) (recio.Reader, int, error) {
	c := *recio.Decoder(body)
	codeMeta(&c, m)
	n := int(c.R.U32())
	if c.Err() != nil {
		return c.R, 0, fmt.Errorf("%w: truncated %s header", ErrCorrupt, what)
	}
	return c.R, n, nil
}

// appendKeyframe encodes a full-column keyframe record onto b.
func appendKeyframe(b []byte, f *Frame) []byte {
	w := beginFrameRecord(b, f)
	for _, id := range f.Parts.ID {
		w.I32(id)
	}
	for _, col := range f.cols() {
		for _, v := range *col {
			w.F64(v)
		}
	}
	return recio.Finish(w.B, len(b), recKeyframe)
}

// Column delta tags.
const (
	colSame   = 0 // column bit-identical to the previous frame
	colPacked = 1 // per-value significant-byte packing of the XOR image
)

// appendDelta encodes f as an XOR delta against prev. The two frames
// must have equal particle counts (the writer keyframes on any count
// change). Each float64 column is XORed bit-wise with its predecessor;
// the image of a slightly-moved particle has zero sign/exponent/high
// mantissa bytes, so values are stored as a significant-byte count plus
// only the low non-zero bytes.
func appendDelta(b []byte, f, prev *Frame) []byte {
	w := beginFrameRecord(b, f)

	// Particle IDs almost never change between frames; a changed set
	// falls back to the raw column.
	same := true
	for i, id := range f.Parts.ID {
		if id != prev.Parts.ID[i] {
			same = false
			break
		}
	}
	if same {
		w.U8(colSame)
	} else {
		w.U8(colPacked)
		for _, id := range f.Parts.ID {
			w.I32(id)
		}
	}

	prevCols := prev.cols()
	for ci, col := range f.cols() {
		cur, old := *col, *prevCols[ci]
		identical := true
		for i := range cur {
			if math.Float64bits(cur[i]) != math.Float64bits(old[i]) {
				identical = false
				break
			}
		}
		if identical {
			w.U8(colSame)
			continue
		}
		w.U8(colPacked)
		for i := range cur {
			x := math.Float64bits(cur[i]) ^ math.Float64bits(old[i])
			nb := significantBytes(x)
			w.U8(byte(nb))
			for k := 0; k < nb; k++ {
				w.U8(byte(x >> (8 * k)))
			}
		}
	}
	return recio.Finish(w.B, len(b), recDelta)
}

// significantBytes is the count of low bytes needed to represent x (0
// for x == 0, 8 for a full-width image).
func significantBytes(x uint64) int {
	n := 0
	for x != 0 {
		n++
		x >>= 8
	}
	return n
}

// decodeKeyframe decodes a keyframe body into f, reusing f's column
// capacity. Every length is validated against the body before the
// columns are sized, once each, so a hostile body cannot force an
// allocation beyond its own size.
func decodeKeyframe(body []byte, f *Frame) error {
	c, n, err := readFrameHeader(body, &f.Meta, "keyframe")
	if err != nil {
		return err
	}
	if want := n * (4 + numCols*8); c.Remaining() != want {
		return fmt.Errorf("%w: keyframe body is %d bytes for %d particles (want %d)", ErrCorrupt, c.Remaining(), n, want)
	}
	f.Parts.Reset()
	f.Parts.Grow(n)
	ids := c.Take(n * 4)
	for i := 0; i < n; i++ {
		f.Parts.ID = append(f.Parts.ID, int32(binary.LittleEndian.Uint32(ids[i*4:])))
	}
	for _, col := range f.cols() {
		raw := c.Take(n * 8)
		for i := 0; i < n; i++ {
			*col = append(*col, math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:])))
		}
	}
	return nil
}

// decodeDelta applies a delta body to f in place. f must hold the
// immediately preceding frame of the chain; on an error it holds a mix of
// the two and must not be used as a base again.
func decodeDelta(body []byte, f *Frame) error {
	var m Meta
	c, n, err := readFrameHeader(body, &m, "delta")
	if err != nil {
		return err
	}
	if f.Parts.Len() != n {
		return fmt.Errorf("%w: delta for %d particles without a matching predecessor", ErrCorrupt, n)
	}
	f.Meta = m
	switch c.U8() {
	case colSame:
	case colPacked:
		ids := c.Take(n * 4)
		if c.Err() != nil {
			return fmt.Errorf("%w: truncated delta id column", ErrCorrupt)
		}
		for i := range f.Parts.ID {
			f.Parts.ID[i] = int32(binary.LittleEndian.Uint32(ids[i*4:]))
		}
	default:
		return fmt.Errorf("%w: unknown delta id tag", ErrCorrupt)
	}
	for _, col := range f.cols() {
		switch c.U8() {
		case colSame:
		case colPacked:
			for i, v := range *col {
				nb := int(c.U8())
				if nb > 8 {
					return fmt.Errorf("%w: delta byte count %d", ErrCorrupt, nb)
				}
				raw := c.Take(nb)
				if c.Err() != nil {
					return fmt.Errorf("%w: truncated delta column", ErrCorrupt)
				}
				var x uint64
				for k := 0; k < nb; k++ {
					x |= uint64(raw[k]) << (8 * k)
				}
				(*col)[i] = math.Float64frombits(math.Float64bits(v) ^ x)
			}
		default:
			return fmt.Errorf("%w: unknown delta column tag", ErrCorrupt)
		}
	}
	if c.Err() != nil {
		return fmt.Errorf("%w: truncated delta body", ErrCorrupt)
	}
	if c.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in delta body", ErrCorrupt, c.Remaining())
	}
	return nil
}

// IndexEntry locates one keyframe: the step it captured and the byte
// offset of its record.
type IndexEntry struct {
	Step int64
	Off  int64
}

// appendIndexRecord encodes the sparse keyframe index as a record.
func appendIndexRecord(b []byte, idx []IndexEntry) []byte {
	w := recio.Writer{B: recio.Begin(b)}
	w.U32(uint32(len(idx)))
	for _, e := range idx {
		w.I64(e.Step)
		w.I64(e.Off)
	}
	return recio.Finish(w.B, len(b), recIndex)
}

// decodeIndex decodes an index record body.
func decodeIndex(body []byte) ([]IndexEntry, error) {
	c := recio.NewReader(body)
	n := int(c.U32())
	if c.Err() != nil || c.Remaining() != n*16 {
		return nil, fmt.Errorf("%w: malformed index record", ErrCorrupt)
	}
	idx := make([]IndexEntry, n)
	for i := range idx {
		idx[i] = IndexEntry{Step: c.I64(), Off: c.I64()}
	}
	return idx, nil
}

// copyFrame deep-copies src into dst, reusing dst's column capacity: the
// writer keeps its delta predecessor separate from the caller's frame.
func copyFrame(dst, src *Frame) {
	dst.Meta = src.Meta
	dst.Parts.Reset()
	dst.Parts.ID = append(dst.Parts.ID, src.Parts.ID...)
	sc, dc := src.cols(), dst.cols()
	for i := range sc {
		*dc[i] = append(*dc[i], *sc[i]...)
	}
}

// keyframeLen is the full size of f's keyframe record, header and
// checksum included.
func keyframeLen(f *Frame) int {
	return recio.HeaderLen + metaLen + 4 + f.Parts.Len()*(4+numCols*8) + recio.CRCLen
}

// WriteKeyframe writes f's keyframe record — header, body and CRC,
// without the file magic — to w without building it in one buffer: the
// length is known up front, the body goes out through a small fixed
// buffer and the checksum is accumulated as it does. It returns the
// number of bytes written; a failed or short write ends it with an error.
// A keyframe record is the unit the fabric replicates: a gateway holding
// the latest one of a leased job can seed a replacement shard with it.
func WriteKeyframe(w io.Writer, f *Frame) (int64, error) {
	s := recordStream{w: w, buf: make([]byte, 0, 32<<10)}
	// The length field goes out alone: the checksum covers what follows.
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(keyframeLen(f)-recio.HeaderLen-recio.CRCLen))
	s.write()
	c := recio.Coder{W: recio.Writer{B: append(s.buf, recKeyframe)}}
	codeMeta(&c, &f.Meta)
	c.W.U32(uint32(f.Parts.Len()))
	s.buf = c.W.B
	for _, id := range f.Parts.ID {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(id))
		if !s.room() {
			return s.n, s.err
		}
	}
	for _, col := range f.cols() {
		for _, v := range *col {
			s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(v))
			if !s.room() {
				return s.n, s.err
			}
		}
	}
	s.flush()
	s.buf = binary.LittleEndian.AppendUint32(s.buf, s.sum)
	s.write()
	return s.n, s.err
}

// recordStream writes a record through buf, accumulating the checksum of
// what it flushes.
type recordStream struct {
	w   io.Writer
	buf []byte
	sum uint32
	n   int64
	err error
}

// room flushes buf when another 8-byte value might not fit, and reports
// whether the stream is still good.
func (s *recordStream) room() bool {
	if len(s.buf)+8 > cap(s.buf) {
		s.flush()
	}
	return s.err == nil
}

// flush checksums and writes buf.
func (s *recordStream) flush() {
	s.sum = recio.UpdateChecksum(s.sum, s.buf)
	s.write()
}

// write writes buf as it is and empties it; after an error it does
// nothing.
func (s *recordStream) write() {
	if s.err == nil {
		m, err := s.w.Write(s.buf)
		s.n += int64(m)
		if err == nil && m < len(s.buf) {
			err = io.ErrShortWrite
		}
		s.err = err
	}
	s.buf = s.buf[:0]
}

// DecodeKeyframe validates and decodes one standalone keyframe record
// written by WriteKeyframe (or extracted from a frame file).
func DecodeKeyframe(rec []byte) (*Frame, error) {
	r, err := parseKeyframe(rec)
	if err != nil {
		return nil, err
	}
	f := &Frame{}
	if err := decodeKeyframe(r.Body, f); err != nil {
		return nil, err
	}
	return f, nil
}

// parseKeyframe checks that rec is one whole keyframe record with an
// intact checksum, without decoding its body or allocating.
func parseKeyframe(rec []byte) (recio.Record, error) {
	r, err := recio.Parse(rec)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Len != len(rec) {
		return r, fmt.Errorf("%w: %d-byte record in a %d-byte buffer", ErrCorrupt, r.Len, len(rec))
	}
	if r.Kind != recKeyframe {
		return r, fmt.Errorf("%w: record kind %d is not a keyframe", ErrCorrupt, r.Kind)
	}
	return r, nil
}
