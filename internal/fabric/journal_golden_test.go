package fabric

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wiregolden"
)

// writeGoldenJournal drives the journal through every record kind: job
// transitions, a compaction snapshot, a keyframe, and appends on top of
// the snapshot.
func writeGoldenJournal(t *testing.T, path string) {
	t.Helper()
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	g1 := testJournalJob("g1", "running", 7, "s0")
	steps := []func() error{
		func() error { return jl.AppendJob(testJournalJob("g1", "queued", 0, "")) },
		func() error { return jl.AppendJob(g1) },
		func() error {
			return jl.Compact(&journalSnapshot{
				Order:     []string{"g1"},
				Jobs:      []journalJob{*g1},
				Keyframes: []journalKeyframe{{ID: "g1", Step: 4, Data: []byte("frame4")}},
				Tenants:   []journalTenant{{Name: "t", Weight: 2, Rate: 10, Burst: 20, Tokens: 3.5, LastFinish: 1.5}},
				VTime:     1.5,
				NextLease: 7,
			})
		},
		func() error { return jl.AppendJob(testJournalJob("g2", "queued", 0, "")) },
		func() error { return jl.AppendKeyframe("g1", 8, []byte("frame8")) },
		func() error {
			done := testJournalJob("g1", "done", 0, "")
			done.Result = json.RawMessage(`{"steps":3}`)
			done.FinishTag = 2.5
			return jl.AppendJob(done)
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("journal step %d: %v", i, err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGoldenBytes pins the NBJ1 format against a journal recorded
// before the record framing moved to internal/recio: today's code must
// replay those bytes to the recorded state and write the same history to
// the same bytes.
func TestJournalGoldenBytes(t *testing.T) {
	const golden, goldenState = "testdata/golden.journal", "testdata/golden.journal.state.json"
	path := filepath.Join(t.TempDir(), "gw.journal")
	writeGoldenJournal(t, path)
	wrote, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(image []byte) []byte {
		p := filepath.Join(t.TempDir(), "replay.journal")
		if err := os.WriteFile(p, image, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, st, err := OpenJournal(p)
		if err != nil {
			t.Fatal(err)
		}
		defer jl.Close()
		if jl.Size() != int64(len(image)) {
			t.Fatalf("replay kept %d of %d bytes", jl.Size(), len(image))
		}
		out, err := json.MarshalIndent(st, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}
	wiregolden.File(t, golden, wrote)
	recorded, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wiregolden.File(t, goldenState, replay(recorded))
}
