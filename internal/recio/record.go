// Package recio is the byte layer under every durable file and every
// wire payload of this repository: the one CRC-framed record format the
// frame store (NBF1), the gateway journal (NBJ1), its result log (NBR1)
// and the checkpoint (NBC1) hold, with its one rule for what a torn tail
// is; the one append-only File they go through and the one whole-file
// writer (file.go); and the bounded little-endian Reader and Writer —
// plus the bidirectional Coder over them — that record bodies and
// transport wire types are written with.
//
// A record is
//
//	[u32 bodyLen][u8 kind][body][u32 crc32c(kind‖body)]
//
// little-endian, Castagnoli polynomial, body at most MaxBody bytes. The
// checksum covers the kind byte, so neither it nor the body can flip
// undetected. Reading one back has exactly three outcomes: the record;
// ErrTorn — it runs past the end of the data, or it ends exactly at the
// end and fails its checksum, which is what a crash (or a reader racing
// a live writer) leaves and what a reopen truncates away; ErrCorrupt —
// anything else, which no crash explains and nobody may silently drop.
package recio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	HeaderLen = 5 // u32 body length + u8 kind
	CRCLen    = 4

	// MaxBody bounds one record body — and one transport frame body —
	// before any allocation: a corrupt or hostile length prefix must
	// never become a giant buffer. 256 MiB covers the largest keyframes,
	// snapshots and particle migrations at paper scale.
	MaxBody = 256 << 20
)

var (
	// ErrTorn marks a record cut short at the end of the data.
	ErrTorn = errors.New("recio: torn record at end of data")
	// ErrCorrupt marks a record no clean crash can have produced.
	ErrCorrupt = errors.New("recio: corrupt record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C every record carries; the frame store's
// trailer guards its index offset with the same sum.
func Checksum(p []byte) uint32 { return crc32.Update(0, castagnoli, p) }

// UpdateChecksum extends sum, the Checksum of some bytes, with p: a record
// streamed in pieces is summed piece by piece.
func UpdateChecksum(sum uint32, p []byte) uint32 { return crc32.Update(sum, castagnoli, p) }

// Record is one parsed record. Body aliases the buffer it was parsed
// from; Len is the record's full size, header and checksum included.
type Record struct {
	Kind byte
	Body []byte
	Len  int
}

// Begin reserves a record header at the end of buf. The caller appends
// the body behind it and calls Finish with the length buf had before
// Begin, so a multi-megabyte body is encoded in place, never copied into
// its frame.
func Begin(buf []byte) []byte { return append(buf, 0, 0, 0, 0, 0) }

// Finish completes the record begun at buf[start:]: it fills the header
// and appends the checksum.
func Finish(buf []byte, start int, kind byte) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-HeaderLen))
	buf[start+4] = kind
	return binary.LittleEndian.AppendUint32(buf, Checksum(buf[start+4:]))
}

// Append frames an already encoded body onto buf.
func Append(buf []byte, kind byte, body []byte) []byte {
	start := len(buf)
	return Finish(append(Begin(buf), body...), start, kind)
}

// recordLen validates the header hdr of a record with avail bytes
// between its first byte and the end of the data, and returns the
// record's full length.
func recordLen(hdr []byte, avail int64) (int64, error) {
	if avail < HeaderLen {
		return 0, ErrTorn
	}
	// A torn tail is a prefix of a well-formed record, so its length
	// field, once fully present, is always plausible: an absurd one is
	// corruption, refused before any allocation.
	body := binary.LittleEndian.Uint32(hdr)
	if body > MaxBody {
		return 0, fmt.Errorf("%w: body length %d exceeds %d", ErrCorrupt, body, MaxBody)
	}
	n := HeaderLen + int64(body) + CRCLen
	if n > avail {
		return 0, ErrTorn
	}
	return n, nil
}

// verify checks the checksum of the complete record rec; atEnd says it
// is the last thing in the data.
func verify(rec []byte, atEnd bool) (Record, error) {
	end := len(rec) - CRCLen
	if Checksum(rec[4:end]) != binary.LittleEndian.Uint32(rec[end:]) {
		if atEnd {
			return Record{}, ErrTorn
		}
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Record{Kind: rec[4], Body: rec[HeaderLen:end], Len: len(rec)}, nil
}

// Parse reads the record at the front of b, where b runs to the end of
// the data. It never allocates.
func Parse(b []byte) (Record, error) {
	n, err := recordLen(b, int64(len(b)))
	if err != nil {
		return Record{}, err
	}
	return verify(b[:n], int(n) == len(b))
}

// ReadHeader reads only the header of the record at off in r, whose data
// ends at size, and returns its kind and full length. Scans that need
// offsets, not bodies, step from record to record with it; the checksum
// is verified when ReadAt reads the record itself.
func ReadHeader(r io.ReaderAt, off, size int64) (kind byte, n int64, err error) {
	var hdr [HeaderLen]byte
	if size-off >= HeaderLen {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return 0, 0, err
		}
	}
	n, err = recordLen(hdr[:], size-off)
	return hdr[4], n, err
}

// ReadAt reads the record at off in r, whose data ends at size, into
// *buf, which it grows when too small and otherwise reuses.
func ReadAt(r io.ReaderAt, off, size int64, buf *[]byte) (Record, error) {
	_, n, err := ReadHeader(r, off, size)
	if err != nil {
		return Record{}, err
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	rec := (*buf)[:n]
	if _, err := r.ReadAt(rec, off); err != nil {
		return Record{}, err
	}
	return verify(rec, off+n == size)
}
