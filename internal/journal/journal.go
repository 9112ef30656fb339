// Package journal makes experiment grids crash-safe: an append-only JSONL
// file with one fsync'd, checksummed record per completed run, and a replay
// reader that tolerates a torn tail. A grid killed mid-flight re-runs with
// the same journal in resume mode, replays the completed rows, and
// simulates only the remainder — producing rows identical to an
// uninterrupted run, because every simulation is deterministic in its key.
//
// Record format (one JSON object per line):
//
//	{"crc":<crc32-IEEE of the rec field's JSON bytes>,"rec":{<Key+Result>}}
//
// A parallel run's Result carries its dag's work and span (dag_work,
// dag_span); a serial run's has none. Records written before the dag was
// recorded lack both fields and still replay: their totals are exact, and
// a reader that needs the dag re-simulates the run (see Result).
//
// The checksum guards the only corruption append-only files suffer in
// practice: a torn final line from a crash mid-write. Replay stops at the
// first record that fails to parse or checksum, or that lacks its
// newline, and returns what preceded it. internal/store, the one writer,
// truncates the file to that prefix before it appends, so the torn tail
// is dropped once and re-measured.
//
// Keys carry the full run tuple plus the workload-registry generation:
// a journal written under one registry population never replays into a
// process whose registrations differ (see workloads.Spec.Generation).
// Baseline-vs-policy is deliberately not in the key — both measure the same
// simulation, so resume dedups them by content, mirroring the input pool.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Key identifies one simulation in the experiment space. Comparable, so it
// keys the replay map directly.
type Key struct {
	// Gen is the workload-registry generation the run's spec was stamped
	// under; it fences a journal to one registry population.
	Gen   uint64 `json:"gen"`
	Bench string `json:"bench"`
	Input string `json:"input"`
	Scale int    `json:"scale"`
	// Topology is the compact machine signature (shape plus a content
	// hash), not the full rendering; see topology.Topology.Key.
	Topology string `json:"topology"`
	Policy   string `json:"policy"`
	P        int    `json:"p"`
	Seed     int64  `json:"seed"`
	Serial   bool   `json:"serial"`
	Verify   bool   `json:"verify"`
}

// Result is the replayable outcome of one completed simulation: the four
// totals every row aggregation in the harness folds from, plus the run's
// computation dag. Failed runs are never journaled — a resume re-attempts
// them.
type Result struct {
	Time  int64 `json:"time"`
	Work  int64 `json:"work"`
	Sched int64 `json:"sched"`
	Idle  int64 `json:"idle"`
	// DAGWork and DAGSpan are the run's strand work and span
	// (core.Report.DAG). A serial run has no dag, so both are zero and
	// omitted, and its record keeps the bytes it had before the dag was
	// recorded. A parallel record written before then has no dag either:
	// a reader that needs the dag must treat zero as absent.
	DAGWork int64 `json:"dag_work,omitempty"`
	DAGSpan int64 `json:"dag_span,omitempty"`
}

// record is one journal line's payload.
type record struct {
	Key
	Result
}

// line wraps a record with its checksum.
type line struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Writer appends checksummed records to a journal file, one fsync per
// record, safe for concurrent use by the harness's -jobs workers.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Append opens (or creates) path for appending: replayed records stay,
// new completions extend the file.
func Append(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{f: f}, nil
}

// Write appends one completed run and syncs it to stable storage before
// returning, so a record the caller saw succeed survives any later crash.
func (w *Writer) Write(k Key, r Result) error {
	rec, err := json.Marshal(record{Key: k, Result: r})
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	ln, err := json.Marshal(line{CRC: crc32.ChecksumIEEE(rec), Rec: rec})
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	ln = append(ln, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(ln); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close closes the underlying file. Safe to call on a nil writer.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// ReplayStats describes what a replay found: how many intact records it
// trusted, how many lines it discarded from the first torn or corrupt
// record onward, and where the trusted prefix ends. Skipped > 0 is the
// signal a resume was partial — callers log it, and the sweep service's
// store reports it as corruption on /statusz.
type ReplayStats struct {
	// Records counts intact records replayed (before key dedup).
	Records int
	// Skipped counts non-empty lines discarded at and after the first
	// torn or corrupt record.
	Skipped int
	// Tail is the byte offset where the trusted prefix ends — the start
	// of the first discarded line. The store truncates the file here
	// before appending, so new records are never written beyond a line a
	// future replay would refuse to read past.
	Tail int64
}

// ReplayWithStats reads every intact record from path, and gives an
// account of what the reader saw. A missing file is an empty journal (first
// run of a --resume grid), not an error. Only records before the first
// torn or corrupt one are trusted, the tail is discarded for
// re-measurement; the reader keeps scanning past it so the caller learns
// how much was lost. Later duplicates of a key win, which makes replay
// idempotent when a resumed grid re-journals a row whose original write
// raced the crash.
func ReplayWithStats(path string) (map[Key]Result, ReplayStats, error) {
	out := map[Key]Result{}
	var st ReplayStats
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out, st, nil
	}
	if err != nil {
		return nil, st, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(splitLines)
	corrupt := false
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if corrupt {
			if len(raw) > 0 {
				st.Skipped++
			}
			continue
		}
		n := int64(len(sc.Bytes()))
		if len(raw) == 0 {
			st.Tail += n
			continue
		}
		var ln line
		var rec record
		switch {
		case !bytes.HasSuffix(sc.Bytes(), []byte{'\n'}):
			// Write ends every record with its newline, so a final line
			// without one is torn, however well it parses; a record
			// appended after it would join its line.
			corrupt = true
		case json.Unmarshal(raw, &ln) != nil:
			corrupt = true // torn tail
		case crc32.ChecksumIEEE(ln.Rec) != ln.CRC:
			corrupt = true // corrupt record: trust nothing past it
		case json.Unmarshal(ln.Rec, &rec) != nil:
			corrupt = true
		}
		if corrupt {
			st.Skipped++
			continue
		}
		out[rec.Key] = rec.Result
		st.Records++
		st.Tail += n
	}
	if err := sc.Err(); err != nil {
		return nil, st, fmt.Errorf("journal: read: %w", err)
	}
	return out, st, nil
}

// splitLines is bufio.ScanLines keeping each line's exact bytes: its
// newline, any carriage return, and a final line without a newline. The
// replay sums token lengths into ReplayStats.Tail, so every byte of the
// file must be in some token.
func splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}
