package numaws_test

// Misuse and failure-containment tests for the public facade: a
// registered benchmark that panics or is mis-shaped must surface as a
// typed error row from the grid surfaces (MeasureAll, Each) — never a
// crash, never the loss of the other benchmarks' rows — at both scales.
// Plus the journal round trip: a session built WithJournal can be resumed
// WithResume into identical rows without re-simulating anything.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pkg/numaws"
)

// registerForTest registers a benchmark and unregisters it when the test
// ends.
func registerForTest(t *testing.T, def numaws.BenchmarkDef) {
	t.Helper()
	if err := numaws.RegisterBenchmark(def); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { numaws.UnregisterBenchmarkForTest(def.Name) })
}

// TestMisbehavingBenchmarksYieldErrorRows drives a grid containing a
// panicking benchmark, a nil-Root benchmark, and a healthy one through
// MeasureAll and Each at both scales: the two broken benchmarks come back
// as attributable error rows, the healthy one measures normally, and
// neither call crashes or returns an error. One session serves every
// call, so the test also pins what its result cache keeps: completed runs
// only, never a failure and never a run a cancellation skipped.
func TestMisbehavingBenchmarksYieldErrorRows(t *testing.T) {
	registerForTest(t, numaws.BenchmarkDef{
		Name: "misuse-panic",
		Make: func(numaws.Scale, bool) numaws.BenchmarkRun {
			return numaws.BenchmarkRun{Root: func(ctx numaws.Context) {
				ctx.Compute(10)
				panic("deliberate misuse panic")
			}}
		},
	})
	registerForTest(t, numaws.BenchmarkDef{
		Name: "misuse-nilroot",
		Make: func(numaws.Scale, bool) numaws.BenchmarkRun { return numaws.BenchmarkRun{} },
	})
	registerForTest(t, numaws.BenchmarkDef{
		Name: "misuse-healthy",
		Make: func(numaws.Scale, bool) numaws.BenchmarkRun {
			return numaws.BenchmarkRun{Root: func(ctx numaws.Context) {
				ctx.Spawn(func(c numaws.Context) { c.Compute(50) })
				ctx.Compute(50)
				ctx.Sync()
			}}
		},
	})
	for _, scale := range []numaws.Scale{numaws.ScaleSmall, numaws.ScaleFull} {
		s, err := numaws.New(
			numaws.WithScale(scale),
			numaws.WithBenchmarks("misuse-panic", "misuse-nilroot", "misuse-healthy"),
			numaws.WithWorkers(4),
			numaws.WithJobs(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		check := func(surface string, rows []numaws.Row, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("scale %d %s: grid must contain benchmark failures, got %v", scale, surface, err)
			}
			if len(rows) != 3 {
				t.Fatalf("scale %d %s: got %d rows, want 3", scale, surface, len(rows))
			}
			for i, wantMsg := range []string{"deliberate misuse panic", "nil Root"} {
				re := rows[i].Err
				if re == nil {
					t.Fatalf("scale %d %s: broken benchmark %s has no error row", scale, surface, rows[i].Name)
				}
				if re.Kind != "panic" || !strings.Contains(re.Message, wantMsg) {
					t.Errorf("scale %d %s: error row = %+v, want panic mentioning %q", scale, surface, re, wantMsg)
				}
			}
			if healthy := rows[2]; healthy.Err != nil || healthy.TS <= 0 {
				t.Errorf("scale %d %s: healthy benchmark's row suffered: %+v", scale, surface, healthy)
			}
		}
		// each streams one Each call's runs, keyed without Replayed, and
		// reports which of them the session's cache answered.
		each := func(ctx context.Context, after func()) (map[numaws.Run]bool, []numaws.Row, error) {
			var mu sync.Mutex
			runs := map[numaws.Run]bool{}
			rows, err := s.Each(ctx, func(r numaws.Run) {
				mu.Lock()
				defer mu.Unlock()
				hit := r.Replayed
				r.Replayed = false
				runs[r] = hit
				if after != nil {
					after()
				}
			})
			return runs, rows, err
		}

		// Cancelled after its first completed run, Each caches only the
		// runs it streamed: the next call replays exactly those and
		// simulates every run the cancellation skipped.
		ctx, cancel := context.WithCancel(t.Context())
		early, _, err := each(ctx, cancel)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("scale %d: cancelled Each: err = %v, want context.Canceled", scale, err)
		}
		runs, rows, err := each(t.Context(), nil)
		check("Each after a cancelled Each", rows, err)
		if len(runs) != 5 || len(early) == 0 || len(early) >= len(runs) {
			t.Fatalf("scale %d: %d runs streamed before the cancellation, %d after, want a prefix of 5", scale, len(early), len(runs))
		}
		for r, hit := range runs {
			if _, ran := early[r]; hit != ran {
				t.Errorf("scale %d: run %+v replayed %t, but it completed in the cancelled call: %t", scale, r, hit, ran)
			}
		}

		// Failures are never cached: the broken benchmarks fail again in
		// every later call, while the healthy one's runs are all replayed.
		rows, err = s.MeasureAll(t.Context())
		check("MeasureAll", rows, err)
		runs, rows, err = each(t.Context(), nil)
		check("second Each", rows, err)
		for r, hit := range runs {
			if !hit {
				t.Errorf("scale %d: second Each simulated %+v again", scale, r)
			}
		}
	}
}

// TestSessionJournalResume exercises the crash-safety surface end to end
// through the facade: a journaled session's rows, replayed by a second
// WithResume session, are identical — with every run filled from the
// journal rather than simulated — and a third session without WithResume
// starts the journal afresh.
func TestSessionJournalResume(t *testing.T) {
	path := t.TempDir() + "/session.jsonl"
	opts := func(extra ...numaws.Option) []numaws.Option {
		return append([]numaws.Option{
			numaws.WithScale(numaws.ScaleSmall),
			numaws.WithBenchmarks("heat", "lu"),
			numaws.WithWorkers(4),
			numaws.WithJobs(2),
		}, extra...)
	}
	s1, err := numaws.New(opts(numaws.WithJournal(path))...)
	if err != nil {
		t.Fatal(err)
	}
	rows1, err := s1.MeasureAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := numaws.New(opts(numaws.WithJournal(path), numaws.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var replayed, simulated atomic.Int64
	rows2, err := s2.Each(t.Context(), func(r numaws.Run) {
		if r.Replayed {
			replayed.Add(1)
		} else {
			simulated.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Errorf("resumed session's rows differ:\nfirst:   %+v\nresumed: %+v", rows1, rows2)
	}
	if simulated.Load() != 0 || replayed.Load() == 0 {
		t.Errorf("resume simulated %d runs and replayed %d, want 0 simulated", simulated.Load(), replayed.Load())
	}

	// Without WithResume, New starts the journal afresh: the file is
	// emptied before the session's store replays it.
	s3, err := numaws.New(opts(numaws.WithJournal(path))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("fresh journal session left the file non-empty: %v, %v", fi, err)
	}
	if replayed, skipped := s3.ReplayStats(); replayed != 0 || skipped != 0 {
		t.Errorf("fresh journal session replayed %d and skipped %d records, want none", replayed, skipped)
	}

	// Resume without a journal is a configuration error, caught at New.
	if _, err := numaws.New(opts(numaws.WithResume())...); err == nil || !strings.Contains(err.Error(), "WithJournal") {
		t.Errorf("WithResume without WithJournal: err = %v, want configuration error", err)
	}
}

// TestSessionJournalTornTailResume pins resume healing: a journal whose
// final record was cut mid-line (a crash during the write) resumes once,
// re-measuring the torn run, and the file it leaves behind is whole — a
// second resume replays every record, skips nothing and simulates
// nothing. Appending past the torn line instead would merge the next
// record into it, and every later resume would re-simulate the same runs.
func TestSessionJournalTornTailResume(t *testing.T) {
	path := t.TempDir() + "/torn.jsonl"
	opts := func(extra ...numaws.Option) []numaws.Option {
		return append([]numaws.Option{
			numaws.WithScale(numaws.ScaleSmall),
			numaws.WithTopology("2x4"),
			numaws.WithBenchmarks("cg", "heat"),
			numaws.WithJobs(1),
		}, extra...)
	}
	s, err := numaws.New(opts(numaws.WithJournal(path))...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.MeasureAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := bytes.Count(data, []byte("\n"))
	if err := os.Truncate(path, int64(len(data)-20)); err != nil {
		t.Fatal(err)
	}

	for pass, wantSkipped := range []int{1, 0} {
		s, err := numaws.New(opts(numaws.WithJournal(path), numaws.WithResume())...)
		if err != nil {
			t.Fatal(err)
		}
		var simulated atomic.Int64
		rows, err := s.Each(t.Context(), func(r numaws.Run) {
			if !r.Replayed {
				simulated.Add(1)
			}
		})
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed, skipped := s.ReplayStats()
		if skipped != wantSkipped || replayed != records-wantSkipped {
			t.Errorf("resume %d: replayed %d, skipped %d; want %d and %d", pass+1, replayed, skipped, records-wantSkipped, wantSkipped)
		}
		if got := simulated.Load(); got != int64(wantSkipped) {
			t.Errorf("resume %d simulated %d runs, want %d", pass+1, got, wantSkipped)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("resume %d: rows differ from the journaled run's:\nfirst:   %+v\nresumed: %+v", pass+1, want, rows)
		}
	}
}

// preDAGRecord is a journal record in the shape written before records
// carried the run's dag: the key and the four totals, nothing else.
type preDAGRecord struct {
	Gen      uint64 `json:"gen"`
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Scale    int    `json:"scale"`
	Topology string `json:"topology"`
	Policy   string `json:"policy"`
	P        int    `json:"p"`
	Seed     int64  `json:"seed"`
	Serial   bool   `json:"serial"`
	Verify   bool   `json:"verify"`
	Time     int64  `json:"time"`
	Work     int64  `json:"work"`
	Sched    int64  `json:"sched"`
	Idle     int64  `json:"idle"`
}

// TestSessionResumesPreDAGJournal pins the compatibility rule for records
// without a dag. A journal rewritten into the older record shape resumes
// into the same rows without simulating; DAGs over it re-simulates the
// tuples whose records lack the dag and reports their real work and
// span, never zeros; and the journal gains no line, because the store
// keeps the record it already holds for a key.
func TestSessionResumesPreDAGJournal(t *testing.T) {
	dir := t.TempDir()
	opts := func(extra ...numaws.Option) []numaws.Option {
		return append([]numaws.Option{
			numaws.WithScale(numaws.ScaleSmall),
			numaws.WithTopology("2x4"),
			numaws.WithBenchmarks("heat"),
			numaws.WithJobs(1),
		}, extra...)
	}
	s, err := numaws.New(opts(numaws.WithJournal(dir + "/new.jsonl"))...)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := s.MeasureAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	wantDAGs, err := s.DAGs(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := wantDAGs[0]; d.Work <= 0 || d.Span <= 0 {
		t.Fatalf("simulated dag %+v, want positive work and span", d)
	}

	data, err := os.ReadFile(dir + "/new.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	for _, ln := range strings.SplitAfter(string(data), "\n") {
		if ln == "" {
			continue
		}
		var wrapped struct {
			Rec json.RawMessage `json:"rec"`
		}
		var rec preDAGRecord
		if err := json.Unmarshal([]byte(ln), &wrapped); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wrapped.Rec, &rec); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		oldLn := fmt.Sprintf("{\"crc\":%d,\"rec\":%s}\n", crc32.ChecksumIEEE(body), body)
		if rec.Serial != (oldLn == ln) {
			t.Errorf("serial=%v record: new shape %q, older shape %q; want equal exactly for serial runs", rec.Serial, ln, oldLn)
		}
		old.WriteString(oldLn)
	}
	path := dir + "/old.jsonl"
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = numaws.New(opts(numaws.WithJournal(path), numaws.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	var simulated atomic.Int64
	rows, err := s.Each(t.Context(), func(r numaws.Run) {
		if !r.Replayed {
			simulated.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	dags, err := s.DAGs(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if replayed, skipped := s.ReplayStats(); replayed != bytes.Count(old.Bytes(), []byte("\n")) || skipped != 0 {
		t.Errorf("resume replayed %d records and skipped %d, want all %d and none", replayed, skipped, bytes.Count(old.Bytes(), []byte("\n")))
	}
	if simulated.Load() != 0 {
		t.Errorf("resume simulated %d runs, want 0", simulated.Load())
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("rows from the older records differ:\ngot  %+v\nwant %+v", rows, wantRows)
	}
	if !reflect.DeepEqual(dags, wantDAGs) {
		t.Errorf("dags over the older records = %+v, want the simulated %+v", dags, wantDAGs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, old.Bytes()) {
		t.Errorf("journal of older records changed: %d lines before, %d after", bytes.Count(old.Bytes(), []byte("\n")), bytes.Count(after, []byte("\n")))
	}
}
