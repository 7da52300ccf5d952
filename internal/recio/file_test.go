package recio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Record kinds FuzzOpen's visitor treats specially: it refuses the first
// and stops the scan at the second, as the frame writer does at its index.
const (
	kindRefused byte = 0xEE
	kindStop    byte = 0xEF
)

// FuzzOpen opens arbitrary bytes behind a magic. The open either refuses
// and leaves the file's bytes as they were, or keeps the longest prefix of
// whole records — up to a Stop — and cuts only what lies behind it; a
// record appended after the open reads back behind them.
func FuzzOpen(f *testing.F) {
	one := Append(nil, 1, []byte("one"))
	two := Append(append([]byte(nil), one...), 2, []byte("two"))
	f.Add([]byte{})
	f.Add(one)
	f.Add(two[:len(two)-3])
	f.Add(append(append([]byte(nil), one...), 0xFF, 0xFF, 0xFF, 0xFF, 2))
	flipped := append([]byte(nil), two...)
	flipped[HeaderLen] ^= 1
	f.Add(flipped)
	f.Add(Append(append([]byte(nil), one...), kindRefused, nil))
	f.Add(append(Append(append([]byte(nil), one...), kindStop, nil), "trailer"...))
	// Executions in one process run one at a time, so they share a path.
	path := filepath.Join(f.TempDir(), "f")
	f.Fuzz(func(t *testing.T, data []byte) {
		const magic = "TEST"
		image := append([]byte(magic), data...)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		// The model: the offsets of the records Open must keep, where the
		// kept prefix ends, and whether Open must refuse.
		var want []int64
		end, refuse := len(magic), false
		for end < len(image) {
			rec, err := Parse(image[end:])
			if errors.Is(err, ErrTorn) || (err == nil && rec.Kind == kindStop) {
				break
			}
			if err != nil || rec.Kind == kindRefused {
				refuse = true
				break
			}
			want = append(want, int64(end))
			end += rec.Len
		}
		var got []int64
		visit := func(off int64, rec Record) error {
			switch rec.Kind {
			case kindRefused:
				return errors.New("refused kind")
			case kindStop:
				return Stop
			}
			got = append(got, off)
			return nil
		}
		file, err := Open(path, magic, visit)
		after, _ := os.ReadFile(path)
		if refuse {
			if err == nil {
				file.Close()
				t.Fatal("open accepted a corrupt or refused record")
			}
			if !bytes.Equal(after, image) {
				t.Fatalf("refused open changed the file: %d bytes, was %d", len(after), len(image))
			}
			return
		}
		if err != nil {
			t.Fatalf("open refused a file a crash can leave: %v", err)
		}
		if !slices.Equal(got, want) || file.Size() != int64(end) || !bytes.Equal(after, image[:end]) {
			t.Fatalf("open kept records %v and %d bytes (file %d); want %v and %d", got, file.Size(), len(after), want, end)
		}
		appended := Append(nil, 7, []byte("appended"))
		if err := file.Append(appended); err != nil {
			t.Fatal(err)
		}
		file.Close()
		got = nil
		if file, err = Open(path, magic, visit); err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		file.Close()
		after, _ = os.ReadFile(path)
		if !slices.Equal(got, append(want, int64(end))) || !bytes.Equal(after, append(image[:end:end], appended...)) {
			t.Fatalf("after an append the file holds records %v, want %v and the appended one at %d", got, want, end)
		}
	})
}
