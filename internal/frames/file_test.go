package frames_test

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/frames"
	"repro/internal/recio"
)

// checkChain requires every frame of want, and nothing else, to read back
// from path through Tail and through Open+Next.
func checkChain(t *testing.T, path string, want []*frames.Frame) {
	t.Helper()
	last, err := frames.Tail(path)
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	sameBits(t, want[len(want)-1], last)
	got, _ := readAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		sameBits(t, want[i], got[i])
	}
}

// A frame append that fails part-way — a short write of a delta record,
// within its 5-byte header or past it — is rolled back, so the Close the
// service calls after a failed append writes the index behind the last
// acknowledged frame. When the rollback fails too, Close writes nothing
// behind the partial record. Either way every acknowledged frame reads
// back through Tail, Open+Next and OpenAppend, and the chain continues.
func TestChainFailedAppendRollsBack(t *testing.T) {
	for _, stuck := range []bool{false, true} {
		for _, partial := range []int{1, 2, 3, 4, 9} {
			path := filepath.Join(t.TempDir(), "chain.nbf")
			w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			w.Inject(&recio.Fault{FailOn: 7, Partial: partial, Stuck: stuck})
			var want []*frames.Frame
			for s := int64(0); s < 6; s++ {
				f := mkFrame(s, 16, 42)
				if _, err := w.Append(f); err != nil {
					t.Fatal(err)
				}
				want = append(want, f)
			}
			if _, err := w.Append(mkFrame(6, 16, 42)); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("stuck %v, partial %d: faulted append returned %v, want ENOSPC", stuck, partial, err)
			}
			if err := w.Close(); (err != nil) != stuck {
				t.Fatalf("stuck %v, partial %d: Close = %v", stuck, partial, err)
			}
			checkChain(t, path, want)

			w, err = frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 4})
			if err != nil {
				t.Fatalf("stuck %v, partial %d: OpenAppend: %v", stuck, partial, err)
			}
			next := mkFrame(6, 16, 42)
			if _, err := w.Append(next); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			checkChain(t, path, append(want, next))
		}
	}
}

// Chain compaction and WriteSeed replace the file at its path: the mode
// stays what Create gave it, and an append after the rewrite lands in the
// file at the path, not in the inode the rename replaced.
func TestRewritesKeepModeAndPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.nbf")
	writeChain(t, path, 12, 16, 2, true)
	mode := fileMode(t, path)
	w, err := frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := w.Size()
	if _, err := w.Compact(frames.Retention{}); err != nil || w.Size() >= before {
		t.Fatalf("Compact: %v, size %d -> %d", err, before, w.Size())
	}
	appendVisible(t, w, path, 12)
	if got := fileMode(t, path); got != mode {
		t.Fatalf("compaction changed the mode from %v to %v", mode, got)
	}
	w.Close()

	// WriteSeed over an existing chain and onto a fresh path.
	rec := frames.EncodeKeyframe(mkFrame(20, 16, 42))
	for _, p := range []string{path, filepath.Join(dir, "seed.nbf")} {
		if err := frames.WriteSeed(p, rec); err != nil {
			t.Fatal(err)
		}
		if got := fileMode(t, p); got != mode {
			t.Fatalf("%s: WriteSeed left mode %v, want %v", p, got, mode)
		}
		w, err := frames.OpenAppend(p, frames.WriterOptions{KeyEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		appendVisible(t, w, p, 21)
		w.Close()
	}
}

// appendVisible appends the frame of step to w and requires Tail to read
// it at path.
func appendVisible(t *testing.T, w *frames.Writer, path string, step int64) {
	t.Helper()
	if _, err := w.Append(mkFrame(step, 16, 42)); err != nil {
		t.Fatal(err)
	}
	last, err := frames.Tail(path)
	if err != nil || last == nil {
		t.Fatalf("after the append, Tail(%s): %v", path, err)
	}
	if last.Meta.Step != step {
		t.Fatalf("after the append, Tail(%s) is step %d, want %d", path, last.Meta.Step, step)
	}
}

func fileMode(t *testing.T, path string) os.FileMode {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Mode()
}
