package frames_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/frames"
)

// mkFrame builds a deterministic frame: step 0 lays particles out from
// the seed, later steps displace every coordinate by a small amount so
// the XOR delta path (shared high bytes) is exercised the way a real
// simulation exercises it.
func mkFrame(step int64, n int, seed int64) *frames.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := &frames.Frame{}
	f.Meta = frames.Meta{
		Step:        step,
		Time:        float64(step) * 0.0625,
		SimTime:     1.5 * float64(step),
		MachineTime: 2.25 * float64(step),
		Energy:      -0.5 + 1e-9*float64(step),
		Efficiency:  0.75,
		Imbalance:   1.0 + 1e-3*float64(step),
		CommWords:   100 * step,
		MACTests:    1000 * step,
		PC:          7 * step,
		PP:          11 * step,
	}
	f.Meta.Domain.Min.X, f.Meta.Domain.Min.Y, f.Meta.Domain.Min.Z = -1, -1, -1
	f.Meta.Domain.Max.X, f.Meta.Domain.Max.Y, f.Meta.Domain.Max.Z = 1, 1, 1
	d := 1e-7 * float64(step)
	p := &f.Parts
	for i := 0; i < n; i++ {
		p.ID = append(p.ID, int32(i))
		p.Mass = append(p.Mass, rng.Float64())
		p.PosX = append(p.PosX, rng.NormFloat64()+d)
		p.PosY = append(p.PosY, rng.NormFloat64()-d)
		p.PosZ = append(p.PosZ, rng.NormFloat64()+2*d)
		p.VelX = append(p.VelX, rng.NormFloat64()*1e-3)
		p.VelY = append(p.VelY, rng.NormFloat64()*1e-3)
		p.VelZ = append(p.VelZ, rng.NormFloat64()*1e-3)
	}
	return f
}

// cloneFrame deep-copies a frame the reader may reuse on the next Next.
func cloneFrame(f *frames.Frame) *frames.Frame {
	cp := &frames.Frame{Meta: f.Meta}
	cp.Parts.ID = append([]int32(nil), f.Parts.ID...)
	cp.Parts.Mass = append([]float64(nil), f.Parts.Mass...)
	cp.Parts.PosX = append([]float64(nil), f.Parts.PosX...)
	cp.Parts.PosY = append([]float64(nil), f.Parts.PosY...)
	cp.Parts.PosZ = append([]float64(nil), f.Parts.PosZ...)
	cp.Parts.VelX = append([]float64(nil), f.Parts.VelX...)
	cp.Parts.VelY = append([]float64(nil), f.Parts.VelY...)
	cp.Parts.VelZ = append([]float64(nil), f.Parts.VelZ...)
	return cp
}

// sameBits asserts bit-exact equality of two frames, column by column.
func sameBits(t *testing.T, want, got *frames.Frame) {
	t.Helper()
	if want.Meta != got.Meta {
		t.Fatalf("meta mismatch: want %+v got %+v", want.Meta, got.Meta)
	}
	if want.Parts.Len() != got.Parts.Len() {
		t.Fatalf("n mismatch: want %d got %d", want.Parts.Len(), got.Parts.Len())
	}
	for i := range want.Parts.ID {
		if want.Parts.ID[i] != got.Parts.ID[i] {
			t.Fatalf("id[%d]: want %d got %d", i, want.Parts.ID[i], got.Parts.ID[i])
		}
	}
	cols := func(f *frames.Frame) [][]float64 {
		return [][]float64{f.Parts.Mass, f.Parts.PosX, f.Parts.PosY, f.Parts.PosZ,
			f.Parts.VelX, f.Parts.VelY, f.Parts.VelZ}
	}
	wc, gc := cols(want), cols(got)
	for ci := range wc {
		for i := range wc[ci] {
			if math.Float64bits(wc[ci][i]) != math.Float64bits(gc[ci][i]) {
				t.Fatalf("col %d[%d]: want %x got %x", ci, i,
					math.Float64bits(wc[ci][i]), math.Float64bits(gc[ci][i]))
			}
		}
	}
}

func writeChain(t *testing.T, path string, steps int, n int, keyEvery int, clean bool) []*frames.Frame {
	t.Helper()
	w, err := frames.Create(path, frames.WriterOptions{KeyEvery: keyEvery})
	if err != nil {
		t.Fatal(err)
	}
	var all []*frames.Frame
	for s := 0; s < steps; s++ {
		f := mkFrame(int64(s), n, 42)
		if _, err := w.Append(f); err != nil {
			t.Fatal(err)
		}
		all = append(all, f)
	}
	if clean {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		// Abandon without Close: a crash leaves no index or trailer.
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

func readAll(t *testing.T, path string) ([]*frames.Frame, bool) {
	t.Helper()
	r, err := frames.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []*frames.Frame
	for {
		var f frames.Frame
		err := r.Next(&f)
		if err == io.EOF {
			return out, r.CleanEOF()
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, cloneFrame(&f))
	}
}

func TestRoundTripBitIdentical(t *testing.T) {
	for _, clean := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "chain.nbf")
		want := writeChain(t, path, 23, 64, 4, clean)
		got, cleanEOF := readAll(t, path)
		if cleanEOF != clean {
			t.Fatalf("CleanEOF = %v, want %v", cleanEOF, clean)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			sameBits(t, want[i], got[i])
		}
	}
}

func TestSeekStep(t *testing.T) {
	for _, clean := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "seek.nbf")
		want := writeChain(t, path, 33, 48, 5, clean)
		r, err := frames.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, target := range []int64{0, 1, 7, 13, 22, 32} {
			if err := r.SeekStep(target); err != nil {
				t.Fatal(err)
			}
			var f frames.Frame
			for {
				if err := r.Next(&f); err != nil {
					t.Fatalf("seek %d: %v", target, err)
				}
				if f.Meta.Step >= target {
					break
				}
			}
			if f.Meta.Step != target {
				t.Fatalf("seek %d landed on %d", target, f.Meta.Step)
			}
			sameBits(t, want[target], cloneFrame(&f))
		}
	}
}

// TestCrashTruncationRecovery simulates a crash at every possible byte
// boundary: the file is cut at each offset, and the cut file must (a)
// open and read a clean prefix without panicking, and (b) recover
// through OpenAppend such that the continued chain reads back
// bit-identically.
func TestCrashTruncationRecovery(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.nbf")
	want := writeChain(t, full, 9, 12, 3, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len("NBF1"); cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.nbf")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, cleanEOF := readAll(t, path)
		if cleanEOF {
			t.Fatalf("cut %d: torn file reported clean close", cut)
		}
		for i := range got {
			sameBits(t, want[i], got[i])
		}
		// Recovery: reopen for append and continue the chain.
		w, err := frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 3})
		if err != nil {
			t.Fatalf("cut %d: OpenAppend: %v", cut, err)
		}
		next := mkFrame(int64(len(got)), 12, 42)
		if _, err := w.Append(next); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got2, cleanEOF := readAll(t, path)
		if !cleanEOF {
			t.Fatalf("cut %d: recovered file not clean after Close", cut)
		}
		if len(got2) != len(got)+1 {
			t.Fatalf("cut %d: recovered chain has %d frames, want %d", cut, len(got2), len(got)+1)
		}
		for i := range got {
			sameBits(t, want[i], got2[i])
		}
		sameBits(t, next, got2[len(got)])
	}
}

// TestCorruptMidFile flips one byte in every record of the file body
// (not the tail record) and asserts the reader reports ErrCorrupt
// rather than EOF or silence.
func TestCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.nbf")
	writeChain(t, full, 8, 16, 3, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte early in the file (inside the first record's body):
	// every later record still present means this cannot be a torn tail.
	for _, off := range []int{8, 24, 99} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		path := filepath.Join(dir, "bad.nbf")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := frames.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var sawCorrupt bool
		for {
			var f frames.Frame
			err := r.Next(&f)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, frames.ErrCorrupt) {
					t.Fatalf("offset %d: error %v is not ErrCorrupt", off, err)
				}
				sawCorrupt = true
				break
			}
		}
		r.Close()
		if !sawCorrupt {
			t.Fatalf("offset %d: bit flip went undetected", off)
		}
	}
}

func TestOpenAppendAfterCleanClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.nbf")
	want := writeChain(t, path, 7, 20, 3, true)
	w, err := frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for s := 7; s < 14; s++ {
		f := mkFrame(int64(s), 20, 42)
		if _, err := w.Append(f); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, clean := readAll(t, path)
	if !clean {
		t.Fatal("not clean after reopen+close")
	}
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		sameBits(t, want[i], got[i])
	}
}

func TestKeyframeRecordRoundTrip(t *testing.T) {
	f := mkFrame(17, 40, 7)
	rec := frames.EncodeKeyframe(f)
	got, err := frames.DecodeKeyframe(rec)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, f, got)

	// Seed a file from the replicated record and continue the chain —
	// the fabric handoff path.
	path := filepath.Join(t.TempDir(), "seed.nbf")
	if err := frames.WriteSeed(path, rec); err != nil {
		t.Fatal(err)
	}
	w, err := frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	next := mkFrame(18, 40, 7)
	if _, err := w.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _ := readAll(t, path)
	if len(got2) != 2 {
		t.Fatalf("seeded chain has %d frames, want 2", len(got2))
	}
	sameBits(t, f, got2[0])
	sameBits(t, next, got2[1])

	// Corrupt seed records must be refused.
	bad := append([]byte(nil), rec...)
	bad[10] ^= 1
	if err := frames.WriteSeed(filepath.Join(t.TempDir(), "bad.nbf"), bad); err == nil {
		t.Fatal("corrupt seed accepted")
	}
}

// TestWriteKeyframeStreamsEncodeKeyframe checks that the streamed record
// is EncodeKeyframe's byte for byte — empty, one particle and a
// service_frames_tail-sized frame, with -0 and NaN payloads among the
// values — and that EncodeKeyframe allocates exactly once.
func TestWriteKeyframeStreamsEncodeKeyframe(t *testing.T) {
	for _, n := range []int{0, 1, 40000} {
		f := mkFrame(9, n, 3)
		f.Meta.Energy = math.Copysign(0, -1)
		f.Meta.Imbalance = math.Float64frombits(0x7ff8_dead_beef_0001)
		if n > 0 {
			f.Parts.PosX[0] = math.Copysign(0, -1)
			f.Parts.VelZ[n-1] = math.Float64frombits(0xfff0_0000_0000_0123) // signalling NaN
			f.Parts.Mass[n/2] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(n))
		}
		want := frames.EncodeKeyframe(f)
		if len(want) != cap(want) {
			t.Fatalf("n=%d: EncodeKeyframe's buffer has cap %d for %d bytes", n, cap(want), len(want))
		}
		var got bytes.Buffer
		m, err := frames.WriteKeyframe(&got, f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("n=%d: streamed %d bytes differ from the %d-byte encoded record", n, m, len(want))
		}
		// AllocsPerRun counts the whole process's allocations. Each 2.5 MB
		// record would start a GC cycle, after which the runtime runs the
		// cleanup of the unique maps net/netip makes (linked through
		// wiregolden); that cleanup allocates, and under load it runs
		// inside the measured window. No collection, no cleanup.
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(5, func() { frames.EncodeKeyframe(f) })
		debug.SetGCPercent(gc)
		if allocs != 1 {
			t.Fatalf("n=%d: EncodeKeyframe allocates %v times, want 1", n, allocs)
		}
	}
}

// shortWriter accepts limit bytes, then fails (or, when quiet, writes
// short without an error).
type shortWriter struct {
	limit int
	quiet bool
	n     int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	m := w.limit - w.n
	w.n = w.limit
	if w.quiet {
		return m, nil
	}
	return m, errors.New("connection reset")
}

func TestWriteKeyframeShortWrite(t *testing.T) {
	f := mkFrame(3, 40000, 5)
	size := int64(len(frames.EncodeKeyframe(f)))
	for _, limit := range []int{0, 3, 100, 70000, int(size) - 1} {
		for _, quiet := range []bool{false, true} {
			w := &shortWriter{limit: limit, quiet: quiet}
			m, err := frames.WriteKeyframe(w, f)
			if err == nil {
				t.Fatalf("limit %d quiet %v: a cut stream reported success", limit, quiet)
			}
			if quiet && !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("limit %d: silent short write gave %v", limit, err)
			}
			if m != int64(limit) || m >= size {
				t.Fatalf("limit %d quiet %v: reported %d bytes written", limit, quiet, m)
			}
		}
	}
}

// TestKeyframeRecordIsLastAppend checks that KeyframeRecord is the record
// just appended when it was a keyframe, and nil after a delta, after a
// reopen and after Close.
func TestKeyframeRecordIsLastAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.nbf")
	w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.KeyframeRecord() != nil {
		t.Fatal("a fresh writer has a keyframe record")
	}
	for step := int64(0); step < 4; step++ {
		f := mkFrame(step, 50, 1)
		isKey, err := w.Append(f)
		if err != nil {
			t.Fatal(err)
		}
		rec := w.KeyframeRecord()
		if !isKey {
			if rec != nil {
				t.Fatalf("step %d: a delta left a keyframe record", step)
			}
			continue
		}
		if !bytes.Equal(rec, frames.EncodeKeyframe(f)) {
			t.Fatalf("step %d: KeyframeRecord is not the appended keyframe", step)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.KeyframeRecord() != nil {
		t.Fatal("a closed writer has a keyframe record")
	}
	w, err = frames.OpenAppend(path, frames.WriterOptions{KeyEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.KeyframeRecord() != nil {
		t.Fatal("a reopened writer read a keyframe record back")
	}
}

func TestCompactionBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.nbf")
	w, err := frames.Create(path, frames.WriterOptions{KeyEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 96 << 10
	pol := frames.Retention{MaxBytes: budget, KeepGroups: 2, Decimate: 4}
	var lastSteps []int64
	for s := 0; s < 200; s++ {
		f := mkFrame(int64(s), 64, 42)
		isKey, err := w.Append(f)
		if err != nil {
			t.Fatal(err)
		}
		lastSteps = append(lastSteps, int64(s))
		if isKey && w.Size() > budget {
			if _, err := w.Compact(pol); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w.Size() > budget {
		t.Fatalf("size %d exceeds budget %d after compaction", w.Size(), budget)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving chain must read clean, strictly increase in step,
	// and retain the dense recent tail (the last KeyEvery frames).
	got, clean := readAll(t, path)
	if !clean {
		t.Fatal("compacted file not clean")
	}
	if len(got) == 0 {
		t.Fatal("compaction dropped everything")
	}
	prev := int64(-1)
	for _, f := range got {
		if f.Meta.Step <= prev {
			t.Fatalf("steps not strictly increasing: %d after %d", f.Meta.Step, prev)
		}
		prev = f.Meta.Step
	}
	if prev != lastSteps[len(lastSteps)-1] {
		t.Fatalf("tail frame is step %d, want %d", prev, lastSteps[len(lastSteps)-1])
	}
	tail := got[len(got)-4:]
	for i, f := range tail {
		want := mkFrame(f.Meta.Step, 64, 42)
		sameBits(t, want, tail[i])
	}
}

func TestTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.nbf")
	want := writeChain(t, path, 11, 24, 4, false)
	got, err := frames.Tail(path)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want[len(want)-1], got)
}

// readFrames reads up to 64 frames of the chain at path, into one reused
// frame (every delta applied in place) or into a fresh frame per Next
// (every delta rebuilt from its keyframe), and returns copies of them with
// the error that ended the read.
func readFrames(path string, fresh bool) ([]*frames.Frame, error) {
	r, err := frames.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var got []*frames.Frame
	f := &frames.Frame{}
	for i := 0; i < 64; i++ {
		if fresh {
			f = &frames.Frame{}
		}
		if err := r.Next(f); err != nil {
			return got, err
		}
		got = append(got, cloneFrame(f))
	}
	return got, nil
}

// FuzzReadFrame feeds arbitrary bytes to the file reader and the
// standalone keyframe decoder: they must error on garbage, never panic,
// and never allocate past the input's own size class. The chain is read
// in place and into fresh frames, and the two reads must agree on every
// frame and on the error that ends them. Seeds are kept tiny on purpose —
// every byte of a CRC-framed input is load-bearing, so the minimizer can
// rarely shrink an interesting input and its cost scales with seed size
// (CI also caps it with -fuzzminimizetime).
func FuzzReadFrame(f *testing.F) {
	// One scratch directory per process: fuzz workers are separate
	// processes (each runs this setup itself) and executions within a
	// worker are sequential, so a single reused path is race-free.
	dir, err := os.MkdirTemp("", "framesfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })

	// Seed corpus: a clean file, a crashed file, and a standalone record.
	seedPath := filepath.Join(dir, "seed.nbf")
	w, err := frames.Create(seedPath, frames.WriterOptions{KeyEvery: 2})
	if err != nil {
		f.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if _, err := w.Append(mkFrame(int64(s), 2, 3)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-20])
	f.Add(frames.EncodeKeyframe(mkFrame(0, 1, 9)))
	f.Add([]byte("NBF1"))
	f.Add([]byte{})

	path := filepath.Join(dir, "fuzz.nbf")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		inPlace, err := readFrames(path, false)
		fresh, ferr := readFrames(path, true)
		if fmt.Sprint(err) != fmt.Sprint(ferr) || len(inPlace) != len(fresh) {
			t.Fatalf("in place: %d frames, then %v; fresh frames: %d, then %v", len(inPlace), err, len(fresh), ferr)
		}
		for i, fr := range inPlace {
			if !bytes.Equal(frames.EncodeKeyframe(fr), frames.EncodeKeyframe(fresh[i])) {
				t.Fatalf("frame %d differs between in-place and fresh reads", i)
			}
			if fr.Parts.Len() > len(data) {
				t.Fatalf("decoded %d particles from %d input bytes", fr.Parts.Len(), len(data))
			}
		}
		if fr, err := frames.DecodeKeyframe(data); err == nil {
			if fr.Parts.Len()*12 > len(data) {
				t.Fatalf("keyframe decoded %d particles from %d bytes", fr.Parts.Len(), len(data))
			}
		}
	})
}
