package frames

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/recio"
)

// WriterOptions tune a frame writer.
type WriterOptions struct {
	// KeyEvery is the keyframe cadence: a full-column keyframe is
	// written every KeyEvery frames, with XOR deltas in between.
	// Defaults to 16.
	KeyEvery int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.KeyEvery <= 0 {
		o.KeyEvery = 16
	}
	return o
}

// Writer appends frames to one file, a recio.File: a failed append is
// rolled back, so the chain continues behind it. It is not safe for
// concurrent use; the service serializes appends per job on the owning
// worker.
//
// Between Appends a writer holds one copy of the last frame, the delta
// predecessor: its columns in prev after a delta, or its record in key
// after a keyframe — what KeyframeRecord returns — from which the next
// delta decodes prev.
type Writer struct {
	file     *recio.File
	opt      WriterOptions
	prev     *Frame // the last frame: its Meta, and its columns unless key holds them
	prevN    int    // the last frame's particle count
	key      []byte // the last Append's keyframe record, nil after a delta
	sinceKey int
	index    []IndexEntry
	closed   bool
}

// Create starts a new frame file at path, truncating any existing one.
func Create(path string, opt WriterOptions) (*Writer, error) {
	f, err := recio.Create(path, magic)
	if err != nil {
		return nil, err
	}
	return &Writer{file: f, opt: opt.withDefaults()}, nil
}

// OpenAppend reopens a frame file for appending (an absent one starts
// empty). A torn tail record — one cut short by a crash or failing its
// CRC at end-of-file — is truncated away, as is any clean-close
// index/trailer (a fresh one is written on the next Close); a corrupt
// record anywhere else refuses the open and leaves the file untouched.
// The walk decodes every frame into the delta predecessor, so the chain
// continues seamlessly.
func OpenAppend(path string, opt WriterOptions) (*Writer, error) {
	w := &Writer{opt: opt.withDefaults()}
	last := &Frame{}
	var err error
	w.file, err = recio.Open(path, magic, func(off int64, rec recio.Record) error {
		var err error
		switch {
		case rec.Kind == recIndex:
			return recio.Stop
		case rec.Kind == recKeyframe:
			if err = decodeKeyframe(rec.Body, last); err == nil {
				w.index = append(w.index, IndexEntry{Step: last.Meta.Step, Off: off})
				w.sinceKey = 0
			}
		case rec.Kind != recDelta:
			err = fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
		case w.prev == nil:
			err = fmt.Errorf("%w: delta without a keyframe", ErrCorrupt)
		default:
			err = decodeDelta(rec.Body, last)
		}
		w.prev = last
		w.sinceKey++
		return err
	})
	if errors.Is(err, recio.ErrCorrupt) {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	if w.prev != nil {
		w.prevN = last.Parts.Len()
	}
	return w, nil
}

// Append writes one frame, choosing keyframe or delta encoding. A
// keyframe is forced on the first frame, on any particle-count change,
// and every KeyEvery frames. Reports whether a keyframe was written —
// the service replicates the keyframe record to the gateway on true.
//
// f stays the caller's: Append copies it, into the keyframe record it
// keeps or into its predecessor after a delta. Each record is encoded
// into a buffer of its own and lands in a single Write call, so
// tail-following readers never observe a half-record except at a genuine
// crash boundary; a delta's buffer is dropped once written, a keyframe's
// is kept until the next Append or Close (see KeyframeRecord).
func (w *Writer) Append(f *Frame) (isKey bool, err error) {
	if w.closed {
		return false, fmt.Errorf("frames: append to closed writer")
	}
	isKey = w.prev == nil || w.prevN != f.Parts.Len() || w.sinceKey >= w.opt.KeyEvery
	if !isKey && w.key != nil {
		// The predecessor is still its keyframe record: decode the body.
		if err := decodeKeyframe(w.key[recio.HeaderLen:len(w.key)-recio.CRCLen], w.prev); err != nil {
			return false, err
		}
	}
	buf := make([]byte, 0, keyframeLen(f))
	if isKey {
		buf = appendKeyframe(buf, f)
	} else {
		buf = appendDelta(buf, f, w.prev)
	}
	off := w.file.Size()
	if err := w.file.Append(buf); err != nil {
		return false, err
	}
	if w.prev == nil {
		w.prev = &Frame{}
	}
	if isKey {
		w.index = append(w.index, IndexEntry{Step: f.Meta.Step, Off: off})
		w.key, w.sinceKey = buf, 1
		*w.prev = Frame{Meta: f.Meta}
	} else {
		w.key = nil
		w.sinceKey++
		copyFrame(w.prev, f)
	}
	w.prevN = f.Parts.Len()
	return isKey, nil
}

// Sync flushes appended records to stable storage.
func (w *Writer) Sync() error { return w.file.Sync() }

// Size is the current file size in bytes, including records not yet
// fsynced.
func (w *Writer) Size() int64 { return w.file.Size() }

// KeyframeRecord returns the raw bytes (header, body, CRC) of the record
// the last Append wrote if it was a keyframe, else nil. The slice is the
// writer's own copy of the last frame, valid until the next Append or
// Close; callers copy it to retain it and must not modify it.
func (w *Writer) KeyframeRecord() []byte { return w.key }

// LastStep returns the step of the last appended (or replayed, after
// OpenAppend) frame. ok is false on an empty chain. Appending a step at
// or below LastStep would break the index's step ordering; callers
// resuming from an older state must Create a fresh file instead.
func (w *Writer) LastStep() (step int64, ok bool) {
	if w.prev == nil {
		return 0, false
	}
	return w.prev.Meta.Step, true
}

// Close appends the sparse keyframe index and the fixed trailer, giving
// readers an O(log n) seek without a forward scan, then closes the
// file. A file missing these (crash) is still fully readable. Behind a
// tail a failed append could not roll back, Close writes nothing and
// returns recio.ErrTornTail: the next OpenAppend truncates that tail.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed, w.key = true, nil
	err := w.file.Append(appendTrailer(appendIndexRecord(nil, w.index), w.file.Size()))
	if err == nil {
		err = w.file.Sync()
	}
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendTrailer encodes the 16-byte clean-close trailer pointing at the
// index record.
func appendTrailer(b []byte, indexOff int64) []byte {
	w := recio.Writer{B: b}
	w.I64(indexOff)
	w.U32(recio.Checksum(w.B[len(b):]))
	w.U32(trailerMagic)
	return w.B
}

// Retention is the compaction policy for a job's frame file.
type Retention struct {
	// MaxBytes is the byte budget; 0 means unbounded (compaction only
	// decimates, never drops for size).
	MaxBytes int64
	// KeepGroups is how many trailing keyframe groups (keyframe plus
	// its deltas) are kept in full fidelity. Defaults to 2.
	KeepGroups int
	// Decimate keeps every Decimate-th keyframe among the older groups
	// (deltas dropped). Defaults to 4.
	Decimate int
}

func (r Retention) withDefaults() Retention {
	if r.KeepGroups <= 0 {
		r.KeepGroups = 2
	}
	if r.Decimate <= 0 {
		r.Decimate = 4
	}
	return r
}

// Compact rewrites the file under the retention policy: the last
// KeepGroups keyframe groups survive in full (keyframe plus deltas);
// older groups are reduced to keyframes only, with only every
// Decimate-th kept; then the oldest survivors are dropped until the
// file fits MaxBytes (the full-fidelity tail is never dropped). Groups
// are copied as intact byte ranges, so delta chains stay valid — every
// surviving delta still follows its own keyframe. Returns the new file
// size. The writer must be between Appends (service compacts only on
// keyframe boundaries).
func (w *Writer) Compact(pol Retention) (int64, error) {
	if w.closed {
		return 0, fmt.Errorf("frames: compact on closed writer")
	}
	pol = pol.withDefaults()
	if len(w.index) <= pol.KeepGroups {
		return w.file.Size(), nil
	}

	// Partition the keyframes: old (decimated to bare keyframes) and
	// the full-fidelity tail.
	cut := len(w.index) - pol.KeepGroups
	type span struct {
		entry IndexEntry
		start int64
		end   int64 // exclusive; group runs to the next keyframe or EOF
	}
	groups := make([]span, len(w.index))
	for i, e := range w.index {
		end := w.file.Size()
		if i+1 < len(w.index) {
			end = w.index[i+1].Off
		}
		groups[i] = span{entry: e, start: e.Off, end: end}
	}

	var keep []span
	// Older groups: keyframe record only, every Decimate-th (counted
	// from the oldest so the survivors are stable as compaction
	// repeats), plus always the newest old group so the history's
	// leading edge stays dense near the tail.
	for i := 0; i < cut; i++ {
		if i%pol.Decimate != 0 && i != cut-1 {
			continue
		}
		g := groups[i]
		end, err := w.recordEnd(g.start)
		if err != nil {
			return 0, err
		}
		keep = append(keep, span{entry: g.entry, start: g.start, end: end})
	}
	keep = append(keep, groups[cut:]...)

	// Byte budget: drop oldest survivors, never the full-fidelity tail.
	if pol.MaxBytes > 0 {
		total := int64(len(magic))
		for _, s := range keep {
			total += s.end - s.start
		}
		for len(keep) > pol.KeepGroups && total > pol.MaxBytes {
			total -= keep[0].end - keep[0].start
			keep = keep[1:]
		}
	}

	// Groups are copied with ReadAt from the old file into its atomic
	// replacement. prev and sinceKey stay valid: the tail groups are
	// copied verbatim.
	newIndex := make([]IndexEntry, 0, len(keep))
	err := w.file.Rewrite(func(dst io.Writer) error {
		off := int64(len(magic))
		for _, s := range keep {
			n, err := io.Copy(dst, io.NewSectionReader(w.file, s.start, s.end-s.start))
			if err == nil && n < s.end-s.start {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return err
			}
			newIndex = append(newIndex, IndexEntry{Step: s.entry.Step, Off: off})
			off += n
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	w.index = newIndex
	return w.file.Size(), nil
}

// recordEnd reads one record header at off and returns the offset just
// past that record.
func (w *Writer) recordEnd(off int64) (int64, error) {
	_, n, err := recio.ReadHeader(w.file, off, w.file.Size())
	return off + n, err
}

// WriteSeed creates a frame file at path containing one replicated
// keyframe record, through recio's atomic Replace. This is how a
// replacement shard materializes the victim's last keyframe before
// resuming the job: the file then continues through OpenAppend like any
// crash-recovered one.
func WriteSeed(path string, rec []byte) error {
	if _, err := DecodeKeyframe(rec); err != nil {
		return err
	}
	f, err := recio.Replace(path, magic, func(w io.Writer) error {
		_, err := w.Write(rec)
		return err
	})
	if err != nil {
		return err
	}
	return f.Close()
}
