// Package wiregolden pins bytes for tests. Each package that registers
// transport wire types keeps one fixed sample value per type in a test
// and the bytes those samples encoded to, recorded once, in a testdata
// file: a codec edit that moves a byte, and a newly registered wire ID
// nobody sampled, both fail the package's golden test. File does the
// same for any other recorded output (a journal, a frame chain, a
// /metrics page).
package wiregolden

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/transport"
)

// Updating reports whether UPDATE_GOLDEN is set in the environment: the
// run rewrites golden files instead of comparing with them.
func Updating() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

// File compares got with the golden file at path byte for byte, or
// rewrites the file when Updating.
func File(t *testing.T, path string, got []byte) {
	t.Helper()
	if Updating() {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s: %d bytes, recorded %d", path, len(got), len(want))
		if len(got) < 4096 && utf8.Valid(got) {
			t.Logf("got:\n%s", got)
		}
	}
}

// Check marshals every sample, compares the bytes with the lines of the
// golden file at path (one "<id> <type> <hex>" line per sample, in
// sample order), decodes the recorded bytes back to a value deep-equal
// to the sample that still equals a fresh decode after its input bytes
// are overwritten, and requires a sample for every wire ID registered in
// [lo, hi] — the ID block of the package under test. With UPDATE_GOLDEN
// set in the environment it rewrites the file instead.
func Check(t *testing.T, path string, lo, hi uint16, samples ...any) {
	t.Helper()
	var lines []string
	seen := make(map[uint16]bool)
	for _, v := range samples {
		b, err := transport.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %T: %v", v, err)
		}
		id := uint16(b[0]) | uint16(b[1])<<8
		seen[id] = true
		lines = append(lines, fmt.Sprintf("%d %T %s", id, v, hex.EncodeToString(b)))
	}
	for _, id := range transport.WireIDs() {
		if id >= lo && id <= hi && !seen[id] {
			t.Errorf("wire ID %d is registered but has no golden sample", id)
		}
	}
	if Updating() {
		File(t, path, []byte(strings.Join(lines, "\n")+"\n"))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d rows, the test has %d samples", path, len(want), len(lines))
	}
	for i, v := range samples {
		if lines[i] != want[i] {
			t.Errorf("sample %d (%T) encodes to\n  %s\nrecorded\n  %s", i, v, lines[i], want[i])
			continue
		}
		raw, _ := hex.DecodeString(want[i][strings.LastIndexByte(want[i], ' ')+1:])
		got, err := transport.Unmarshal(raw)
		if err != nil {
			t.Errorf("sample %d (%T): decoding the recorded bytes: %v", i, v, err)
			continue
		} else if !reflect.DeepEqual(got, v) {
			t.Errorf("sample %d: recorded bytes decode to %#v, want %#v", i, got, v)
		}
		// A conn's reader reuses the buffer it decodes from, so a decoded
		// value must keep nothing of its input.
		fresh, _ := transport.Unmarshal(bytes.Clone(raw))
		for j := range raw {
			raw[j] = 0xAA
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("sample %d (%T) aliases its input: after overwriting the bytes it reads %#v, want %#v", i, v, got, fresh)
		}
	}
}
