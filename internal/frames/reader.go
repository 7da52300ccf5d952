package frames

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/recio"
)

// Reader walks a frame file in step order, decoding keyframes and
// applying deltas. Between calls it holds no frame of its own: a delta is
// applied onto the caller's frame (see Next). It distinguishes three end
// states:
//
//   - clean close: the index record is reached; Next returns io.EOF and
//     CleanEOF() reports true — the chain is complete.
//   - live tail: the file simply ends (or its last record is still
//     being written); Next returns io.EOF with CleanEOF() false. The
//     caller may retry after the writer appends more — this is how
//     /frames tail-follows a running job.
//   - corruption: a record fails its CRC (or is structurally invalid)
//     with more data after it; Next returns ErrCorrupt.
//
// Which of the last two a bad record is, is recio's one rule; it also
// validates every length against MaxRecord and the stat'd file size
// before any allocation.
type Reader struct {
	f           *os.File
	path        string
	off         int64
	size        int64
	index       []IndexEntry
	indexLoaded bool
	clean       bool
	sinceKey    int
	// keyOff is the offset of the keyframe that opens the group being
	// read (-1 before one). filled is the frame the last Next filled, with
	// the step and particle count it left there: the delta path applies
	// onto it in place and rebuilds any other frame from keyOff.
	keyOff     int64
	filled     *Frame
	filledStep int64
	filledN    int
}

// Open opens a frame file for reading. If the file was closed cleanly,
// the trailer's sparse index is loaded for O(log n) SeekStep; a crashed
// file falls back to a one-pass header scan on first seek.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [len(magic)]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:]) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s is not a frame file", ErrCorrupt, path)
	}
	r := &Reader{f: f, path: path, off: int64(len(magic)), size: st.Size(), keyOff: -1}
	r.loadTrailerIndex()
	return r, nil
}

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

// CleanEOF reports whether the last io.EOF from Next was the file's
// clean-close marker (index record) rather than a live or torn tail.
func (r *Reader) CleanEOF() bool { return r.clean }

// loadTrailerIndex opportunistically loads the clean-close index. Any
// validation failure leaves the reader in scan-fallback mode; a crashed
// or truncated file is normal, not an error.
func (r *Reader) loadTrailerIndex() {
	if r.size < int64(len(magic))+trailerLen {
		return
	}
	var tr [trailerLen]byte
	if _, err := r.f.ReadAt(tr[:], r.size-trailerLen); err != nil {
		return
	}
	t := recio.NewReader(tr[:])
	indexOff, sum := t.I64(), t.U32()
	if t.U32() != trailerMagic || recio.Checksum(tr[:8]) != sum || indexOff < int64(len(magic)) {
		return
	}
	// The index record must fill the file exactly from its offset to the
	// trailer.
	var buf []byte
	rec, err := recio.ReadAt(r.f, indexOff, r.size-trailerLen, &buf)
	if err != nil || rec.Kind != recIndex || indexOff+int64(rec.Len) != r.size-trailerLen {
		return
	}
	idx, err := decodeIndex(rec.Body)
	if err != nil {
		return
	}
	r.index = idx
	r.indexLoaded = true
}

// Next makes f the next frame of the chain. It re-stats the file each
// call so a tail-following reader sees the writer's appends.
//
// The in-place path: when f is the frame the previous successful Next
// filled, and its step and particle count are what that call left, a
// delta is applied onto f as it stands — so the caller must not have
// changed f's columns in between. Any other f (a fresh frame, one filled
// before a SeekStep, one the caller edited) is rebuilt from its group's
// keyframe and the deltas up to this one, read from the file again. The
// record buffer lives for this call only.
//
// At a live or torn tail Next returns io.EOF and leaves f untouched, and
// a retry continues in place. After any other error f's contents are
// undefined, and no later Next applies a delta onto them.
func (r *Reader) Next(f *Frame) error {
	if r.clean {
		return io.EOF
	}
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.size = st.Size()
	var buf []byte
	rec, err := r.read(r.off, &buf)
	if err != nil {
		return err
	}
	recLen := int64(rec.Len)
	switch rec.Kind {
	case recIndex:
		idx, err := decodeIndex(rec.Body)
		if err != nil {
			return err
		}
		if !r.indexLoaded {
			r.index = idx
			r.indexLoaded = true
		}
		r.clean = true
		return io.EOF
	case recKeyframe:
		err = decodeKeyframe(rec.Body, f)
	case recDelta:
		if f == r.filled && f.Meta.Step == r.filledStep && f.Parts.Len() == r.filledN {
			err = decodeDelta(rec.Body, f)
		} else {
			err = r.rebuild(f, r.off+recLen, &buf)
		}
	default:
		err = fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
	}
	if err != nil {
		r.filled = nil
		return err
	}
	if rec.Kind == recKeyframe {
		r.keyOff, r.sinceKey = r.off, 0
	}
	r.sinceKey++
	r.filled, r.filledStep, r.filledN = f, f.Meta.Step, f.Parts.Len()
	r.off += recLen
	return nil
}

// read reads the record at off into *buf. A record that runs past the
// current end of file is a writer mid-append (retry later) or a crash's
// torn tail (OpenAppend truncates here), and so is garbage exactly at the
// tail — under a live writer that can be a transiently observed partial
// append, which the retry reads whole. Both are io.EOF.
func (r *Reader) read(off int64, buf *[]byte) (recio.Record, error) {
	rec, err := recio.ReadAt(r.f, off, r.size, buf)
	switch {
	case errors.Is(err, recio.ErrTorn):
		return rec, io.EOF
	case errors.Is(err, recio.ErrCorrupt):
		return rec, fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
	}
	return rec, err
}

// rebuild decodes into f the group's keyframe at keyOff and every delta
// after it, up to end: the end of the delta Next is reading.
func (r *Reader) rebuild(f *Frame, end int64, buf *[]byte) error {
	if r.keyOff < 0 {
		return fmt.Errorf("%w: delta at offset %d without a keyframe", ErrCorrupt, r.off)
	}
	for off := r.keyOff; off < end; {
		rec, err := r.read(off, buf)
		switch {
		case err == io.EOF:
			// It was read whole before, so the file shrank under the
			// reader: f may be overwritten, which io.EOF would deny.
			return fmt.Errorf("%w: record at offset %d is gone", ErrCorrupt, off)
		case err != nil:
			return err
		case off == r.keyOff:
			err = decodeKeyframe(rec.Body, f)
		default:
			err = decodeDelta(rec.Body, f)
		}
		if err != nil {
			return err
		}
		off += int64(rec.Len)
	}
	return nil
}

// ensureIndex builds the keyframe index by scanning record headers.
// Only headers and the 8-byte step field are read; CRC validation
// happens when Next actually decodes a record.
func (r *Reader) ensureIndex() error {
	if r.indexLoaded {
		return nil
	}
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	var idx []IndexEntry
	off := int64(len(magic))
	for {
		kind, n, err := recio.ReadHeader(r.f, off, size)
		if errors.Is(err, recio.ErrTorn) || errors.Is(err, recio.ErrCorrupt) || kind == recIndex {
			break // the scan index covers the valid prefix
		}
		if err != nil {
			return err
		}
		if kind == recKeyframe && n >= recio.HeaderLen+8+recio.CRCLen {
			var step [8]byte
			if _, err := r.f.ReadAt(step[:], off+recio.HeaderLen); err != nil {
				return err
			}
			idx = append(idx, IndexEntry{Step: recio.NewReader(step[:]).I64(), Off: off})
		}
		off += n
	}
	r.index = idx
	r.indexLoaded = true
	return nil
}

// SeekStep positions the reader at the latest keyframe whose step does
// not exceed step (or the first keyframe if step precedes them all).
// The next Next decodes that keyframe; callers skip forward to the
// exact step they want. O(log n) with a clean-close index.
func (r *Reader) SeekStep(step int64) error {
	if err := r.ensureIndex(); err != nil {
		return err
	}
	r.filled, r.keyOff = nil, -1
	r.clean = false
	r.sinceKey = 0
	if len(r.index) == 0 {
		r.off = int64(len(magic))
		return nil
	}
	i := sort.Search(len(r.index), func(i int) bool { return r.index[i].Step > step })
	if i > 0 {
		i--
	}
	r.off = r.index[i].Off
	return nil
}

// Tail opens path, walks the chain past any torn tail, and returns the
// last intact frame (nil if the file holds none). This is the resume
// probe: the service reads a job's chain and its one-record resume.nbf
// with it and restarts the job from whichever frame is further along.
func Tail(path string) (*Frame, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f := &Frame{}
	var last *Frame
	for {
		err := r.Next(f)
		if err == io.EOF {
			return last, nil
		}
		if err != nil {
			return nil, err
		}
		last = f
	}
}
