package recio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// File is an append-only file of records behind a magic: the one file
// discipline of the gateway journal (NBJ1), its result log (NBR1) and the
// frame chain (NBF1).
//
//   - Create writes the magic of a new file; Open checks the magic of an
//     existing one and scans its records, cutting a torn tail and refusing
//     — with the file left untouched — anything else that does not read.
//   - Append writes each record in one call. A failed or short write
//     (ENOSPC, EIO) is rolled back to the last record boundary: the
//     partial record's length prefix would otherwise swallow the records
//     appended behind it, cutting them off as a torn tail or refusing the
//     next open as corruption. When the rollback fails too, the file is
//     Torn and refuses appends until a Rewrite replaces it.
//   - Rewrite and Replace swap in new contents atomically.
//
// A File is not safe for concurrent use, except that ReadAt may run
// beside one writer: it reads only bytes an Append has completed.
type File struct {
	h     Handle
	path  string
	magic string
	size  int64
	torn  bool
}

// Handle is the part of *os.File a File works through; crash-path tests
// put a Fault in between (see Inject).
type Handle interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

var (
	// ErrTornTail refuses appends behind a partial record that a failed
	// append could not roll back.
	ErrTornTail = errors.New("recio: tail unrecoverable after a failed append")
	// Stop, returned by an Open visitor, ends the scan before the record
	// it was given; the file is cut there, as at a torn tail.
	Stop = errors.New("recio: scan stopped")
)

// Create creates the file at path holding only magic, truncating any file
// there.
func Create(path, magic string) (*File, error) {
	h, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := h.Write([]byte(magic)); err != nil {
		h.Close()
		return nil, err
	}
	return &File{h: h, path: path, magic: magic, size: int64(len(magic))}, nil
}

// Open opens the record file at path for appending; an absent or empty
// file is given magic, and an empty path opens an unlinked temporary
// file. An existing file must start with magic. Open reads its records in
// order with ReadAt and calls visit with each and its offset; the record's
// Body is valid only during the call. A record cut short at the end of the
// file — a crash mid-append — is truncated away, and so is everything
// from the record visit answers Stop for. Anything else that does not read
// back (a checksum failure with data behind it, an absurd length, an
// error from visit) refuses the open, names the offset and leaves the file
// untouched.
func Open(path, magic string, visit func(off int64, rec Record) error) (*File, error) {
	var h *os.File
	var err error
	if path == "" {
		if h, err = os.CreateTemp("", "recio-*"); err == nil {
			err = os.Remove(h.Name())
		}
	} else {
		h, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	var f *File
	if err == nil {
		f, err = scan(h, path, magic, visit)
	}
	if err != nil {
		if h != nil {
			h.Close()
		}
		return nil, err
	}
	return f, nil
}

// scan is Open on an open handle.
func scan(h *os.File, path, magic string, visit func(int64, Record) error) (*File, error) {
	info, err := h.Stat()
	if err != nil {
		return nil, err
	}
	f := &File{h: h, path: path, magic: magic, size: int64(len(magic))}
	size := info.Size()
	if size == 0 {
		_, err := h.Write([]byte(magic))
		return f, err
	}
	hdr := make([]byte, len(magic))
	if _, err := h.ReadAt(hdr, 0); err != nil || string(hdr) != magic {
		return nil, fmt.Errorf("%w: %s does not start with %s", ErrCorrupt, path, magic)
	}
	var buf []byte
	for f.size < size {
		rec, err := ReadAt(h, f.size, size, &buf)
		if errors.Is(err, ErrTorn) {
			break
		}
		if err == nil {
			err = visit(f.size, rec)
		}
		if err == Stop {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: bad record at offset %d of %d (file left untouched): %w", path, f.size, size, err)
		}
		f.size += int64(rec.Len)
	}
	if f.size < size {
		if err := h.Truncate(f.size); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Append writes b, whole records, at the end of the file in one call,
// rolling a failed write back (see File).
func (f *File) Append(b []byte) error {
	if f.torn {
		return ErrTornTail
	}
	if _, err := f.h.WriteAt(b, f.size); err != nil {
		if rerr := f.h.Truncate(f.size); rerr != nil {
			f.torn = true
			return fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return err
	}
	f.size += int64(len(b))
	return nil
}

// Replace puts a record file holding magic and what fill writes at path,
// atomically: it writes a temp file beside path, fsyncs it, gives it the
// mode of the file it replaces (a new one gets Create's), and renames it
// over path, so a crash leaves the old file or the new one. The File
// returned appends through the temp's handle: a reopen after the rename
// could fail and leave the writer appending to an inode no longer at
// path.
func Replace(path, magic string, fill func(io.Writer) error) (*File, error) {
	tmp := path + ".tmp"
	h, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = h.Write([]byte(magic)); err == nil {
		err = fill(h)
	}
	if old, serr := os.Stat(path); err == nil && serr == nil {
		err = h.Chmod(old.Mode().Perm())
	}
	if err == nil {
		err = h.Sync()
	}
	var info os.FileInfo
	if err == nil {
		info, err = h.Stat()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		h.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &File{h: h, path: path, magic: magic, size: info.Size()}, nil
}

// WriteFile puts what fill writes at path through Replace, with no magic:
// the one whole-file writer (job specs, parked results, checkpoints).
func WriteFile(path string, fill func(io.Writer) error) error {
	f, err := Replace(path, "", fill)
	if err == nil {
		err = f.Close()
	}
	return err
}

// Rewrite replaces the file's records with what fill writes, through
// Replace; fill may read the old records with ReadAt. A torn tail goes
// with the old file.
func (f *File) Rewrite(fill func(io.Writer) error) error {
	nf, err := Replace(f.path, f.magic, fill)
	if err != nil {
		return err
	}
	f.h.Close()
	*f = *nf
	return nil
}

// ReadAt reads from the file at off.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.h.ReadAt(p, off) }

// Size is the offset the next record lands at: the file's size, unless a
// torn tail lies beyond it.
func (f *File) Size() int64 { return f.size }

// Torn reports whether a failed append left a tail only a Rewrite repairs.
func (f *File) Torn() bool { return f.torn }

// Sync flushes the file to stable storage.
func (f *File) Sync() error { return f.h.Sync() }

// Close releases the file.
func (f *File) Close() error { return f.h.Close() }

// Fault is a Handle that passes through until its FailOn-th WriteAt,
// which lands only the first Partial bytes and reports ENOSPC; with Stuck
// set, Truncate fails too, so the partial record cannot be rolled back.
type Fault struct {
	Handle
	Writes, FailOn, Partial int
	Stuck                   bool
}

func (f *Fault) WriteAt(p []byte, off int64) (int, error) {
	f.Writes++
	if f.Writes != f.FailOn {
		return f.Handle.WriteAt(p, off)
	}
	n, _ := f.Handle.WriteAt(p[:min(f.Partial, len(p))], off)
	return n, syscall.ENOSPC
}

func (f *Fault) Truncate(size int64) error {
	if f.Stuck {
		return syscall.EIO
	}
	return f.Handle.Truncate(size)
}

// Inject puts fault between f and its file: the crash-path tests' seam.
func (f *File) Inject(fault *Fault) { fault.Handle, f.h = f.h, fault }
