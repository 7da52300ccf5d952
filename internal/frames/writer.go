package frames

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

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

// Writer appends frames to one file. It is not safe for concurrent use;
// the service serializes appends per job on the owning worker.
//
// Between Appends a writer holds one copy of the last frame, the delta
// predecessor: its columns in prev after a delta, or its record in key
// after a keyframe — what KeyframeRecord returns — from which the next
// delta decodes prev.
type Writer struct {
	f        *os.File
	path     string
	opt      WriterOptions
	size     int64
	prev     *Frame // the last frame: its Meta, and its columns unless key holds them
	prevN    int    // the last frame's particle count
	key      []byte // the last Append's keyframe record, nil after a delta
	sinceKey int
	index    []IndexEntry
	closed   bool
}

// Create starts a new frame file at path, truncating any existing one.
func Create(path string, opt WriterOptions) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, path: path, opt: opt.withDefaults(), size: int64(len(magic))}, nil
}

// OpenAppend reopens an existing frame file for appending. A torn tail
// record — one cut short by a crash or failing its CRC at end-of-file —
// is truncated away, as is any clean-close index/trailer (a fresh one
// is written on the next Close). The delta predecessor is rebuilt by
// replaying the last keyframe group, so the chain continues seamlessly.
func OpenAppend(path string, opt WriterOptions) (*Writer, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	// Walk the whole chain to find the append point and the last frame.
	// scanState deliberately ignores the trailer index: OpenAppend must
	// re-validate the tail even after a clean close, because compaction
	// or external truncation may have happened since.
	st, err := scanChain(r)
	r.Close()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(st.end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(st.end, 0); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:        f,
		path:     path,
		opt:      opt.withDefaults(),
		size:     st.end,
		prev:     st.last,
		sinceKey: st.sinceKey,
		index:    st.index,
	}
	if st.last != nil {
		w.prevN = st.last.Parts.Len()
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
	if _, err := w.f.Write(buf); err != nil {
		return false, err
	}
	if w.prev == nil {
		w.prev = &Frame{}
	}
	if isKey {
		w.index = append(w.index, IndexEntry{Step: f.Meta.Step, Off: w.size})
		w.key, w.sinceKey = buf, 1
		*w.prev = Frame{Meta: f.Meta}
	} else {
		w.key = nil
		w.sinceKey++
		copyFrame(w.prev, f)
	}
	w.prevN = f.Parts.Len()
	w.size += int64(len(buf))
	return isKey, nil
}

// Sync flushes appended records to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Size is the current file size in bytes, including records not yet
// fsynced.
func (w *Writer) Size() int64 { return w.size }

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
// file. A file missing these (crash) is still fully readable.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed, w.key = true, nil
	indexOff := w.size
	buf := appendIndexRecord(nil, w.index)
	buf = appendTrailer(buf, indexOff)
	if _, err := w.f.Write(buf); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
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
		return w.size, nil
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
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
		end := w.size
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

	// Rewrite via temp file + rename, the same atomicity discipline as
	// the spool's atomicWrite.
	tmp, err := os.CreateTemp(filepath.Dir(w.path), ".nbf-compact-*")
	if err != nil {
		return 0, err
	}
	tmpPath := tmp.Name()
	fail := func(e error) (int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, e
	}
	if _, err := tmp.Write([]byte(magic)); err != nil {
		return fail(err)
	}
	newIndex := make([]IndexEntry, 0, len(keep))
	off := int64(len(magic))
	for _, s := range keep {
		n, err := copyRange(tmp, w.f, s.start, s.end)
		if err != nil {
			return fail(err)
		}
		newIndex = append(newIndex, IndexEntry{Step: s.entry.Step, Off: off})
		off += n
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		os.Remove(tmpPath)
		return 0, err
	}
	// Swap the writer onto the new file. prev and sinceKey are still
	// valid: the tail groups were copied verbatim.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := nf.Seek(off, 0); err != nil {
		nf.Close()
		return 0, err
	}
	w.f.Close()
	w.f = nf
	w.size = off
	w.index = newIndex
	sort.Slice(w.index, func(i, j int) bool { return w.index[i].Off < w.index[j].Off })
	return w.size, nil
}

// recordEnd reads one record header at off and returns the offset just
// past that record.
func (w *Writer) recordEnd(off int64) (int64, error) {
	_, n, err := recio.ReadHeader(w.f, off, w.size)
	return off + n, err
}

// copyRange copies [start,end) of src to dst using ReadAt, leaving
// src's file position (the append cursor) untouched.
func copyRange(dst *os.File, src *os.File, start, end int64) (int64, error) {
	buf := make([]byte, 256<<10)
	var copied int64
	for start+copied < end {
		n := int64(len(buf))
		if rem := end - start - copied; rem < n {
			n = rem
		}
		rn, err := src.ReadAt(buf[:n], start+copied)
		if rn > 0 {
			if _, werr := dst.Write(buf[:rn]); werr != nil {
				return copied, werr
			}
			copied += int64(rn)
		}
		if err != nil {
			return copied, err
		}
	}
	return copied, nil
}

// WriteSeed creates a frame file at path containing one replicated
// keyframe record, via temp + rename. This is how a replacement shard
// materializes the victim's last keyframe before resuming the job: the
// file then continues through OpenAppend like any crash-recovered one.
func WriteSeed(path string, rec []byte) error {
	if _, err := DecodeKeyframe(rec); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".nbf-seed-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	if _, err := tmp.Write([]byte(magic)); err == nil {
		_, err = tmp.Write(rec)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	return nil
}
