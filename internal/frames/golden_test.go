package frames_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wiregolden"
)

// TestChainGoldenBytes pins the NBF1 format against a clean-closed chain
// (keyframes, deltas, index record, trailer) recorded before the record
// framing moved to internal/recio: today's code must read those bytes
// back to the frames that were written, and write the same frames to the
// same bytes.
func TestChainGoldenBytes(t *testing.T) {
	const golden = "testdata/golden.nbf"
	path := filepath.Join(t.TempDir(), "chain.nbf")
	frames := writeChain(t, path, 5, 3, 2, true)
	wrote, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wiregolden.File(t, golden, wrote)
	got, clean := readAll(t, golden)
	if !clean || len(got) != len(frames) {
		t.Fatalf("recorded chain reads %d frames (clean=%v), want %d clean", len(got), clean, len(frames))
	}
	for i := range frames {
		sameBits(t, frames[i], got[i])
	}
}
