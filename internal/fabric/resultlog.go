package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/recio"
)

// The result log holds every terminal result the gateway has served, once
// per canonical spec key: a magic prefix followed by internal/recio
// records whose body is the key (uvarint length, then bytes) and the
// result JSON exactly as the producing shard reported it. Simulated
// results are deterministic functions of that key — the two-clock rule —
// so a repeat submission or a coalesced follower shares the one record,
// and the log's key index is the gateway's result cache. Jobs hold a
// span into the log instead of the bytes, and journal records name no
// result at all: a done job finds its result by key. The log is only
// appended, through the journal's recio.File: a torn tail is truncated,
// anything else that does not read back refuses the open, and a failed
// append is rolled back.

// resultLogMagic distinguishes the result log from the journal (NBJ1)
// and the frame store (NBF1).
const resultLogMagic = "NBR1"

// rrecResult is the result log's one record kind.
const rrecResult byte = 1

// resultSpan locates one result record in the log: its offset and full
// length, header and checksum included.
type resultSpan struct {
	off, n int64
}

// ResultLog is the gateway's open result log. Put and Lookup are called
// with the gateway mutex held; Read needs no lock, because a span only
// ever names a record that is complete on disk and never rewritten.
type ResultLog struct {
	file  *recio.File
	index map[string]resultSpan
}

// OpenResultLog opens (creating if absent) the result log at path and
// indexes its records by key. An empty path opens an unlinked temporary
// file, so a gateway without a journal runs the same code and leaves
// nothing behind.
func OpenResultLog(path string) (*ResultLog, error) {
	rl := &ResultLog{index: make(map[string]resultSpan)}
	var err error
	rl.file, err = recio.Open(path, resultLogMagic, func(off int64, rec recio.Record) error {
		key, _, err := splitResult(rec)
		if err == nil {
			rl.index[key] = resultSpan{off: off, n: int64(rec.Len)}
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: result log %w", err)
	}
	return rl, nil
}

// splitResult decodes a result record's body into its key and result.
func splitResult(rec recio.Record) (string, []byte, error) {
	if rec.Kind != rrecResult {
		return "", nil, fmt.Errorf("result record of kind %d", rec.Kind)
	}
	n, k := binary.Uvarint(rec.Body)
	if k <= 0 || n > uint64(len(rec.Body)-k) {
		return "", nil, errors.New("result record with a bad key length")
	}
	end := k + int(n)
	return string(rec.Body[k:end]), rec.Body[end:], nil
}

// Lookup returns the span of key's result, if the log holds one.
func (rl *ResultLog) Lookup(key string) (resultSpan, bool) {
	sp, ok := rl.index[key]
	return sp, ok
}

// Put appends key's result unless the log already holds one — results
// are deterministic in the key, so the first record serves every job
// that shares it — and returns its span.
func (rl *ResultLog) Put(key string, result []byte) (resultSpan, error) {
	if sp, ok := rl.index[key]; ok {
		return sp, nil
	}
	buf := recio.Begin(make([]byte, 0, recio.HeaderLen+binary.MaxVarintLen64+len(key)+len(result)+recio.CRCLen))
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(append(buf, key...), result...)
	buf = recio.Finish(buf, 0, rrecResult)
	off := rl.file.Size()
	if err := rl.file.Append(buf); err != nil {
		return resultSpan{}, fmt.Errorf("fabric: result log append: %w", err)
	}
	sp := resultSpan{off: off, n: int64(len(buf))}
	rl.index[key] = sp
	return sp, nil
}

// Read returns the result the span names, checksum verified.
func (rl *ResultLog) Read(sp resultSpan) ([]byte, error) {
	buf := make([]byte, sp.n)
	if _, err := rl.file.ReadAt(buf, sp.off); err != nil {
		return nil, fmt.Errorf("fabric: reading result log at offset %d: %w", sp.off, err)
	}
	rec, err := recio.Parse(buf)
	var res []byte
	if err == nil {
		_, res, err = splitResult(rec)
	}
	if err != nil {
		return nil, fmt.Errorf("fabric: result log record at offset %d: %w", sp.off, err)
	}
	return res, nil
}

// Sync flushes the log to stable storage.
func (rl *ResultLog) Sync() error { return rl.file.Sync() }

// Size reports the log's on-disk size (backs nbodygw_result_log_bytes).
func (rl *ResultLog) Size() int64 { return rl.file.Size() }

// Close releases the file. Reads after Close fail; the field stays set,
// because Read runs outside the gateway mutex.
func (rl *ResultLog) Close() error { return rl.file.Close() }
