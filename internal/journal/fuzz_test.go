package journal

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the replay reader as a
// journal (or store) file. The reader never panics, and an error is only
// ever a line past the reader's 1 MiB limit. The trusted prefix it
// reports (Tail) replays to the same records with nothing skipped, and a
// record appended after that prefix — what the store does after healing
// a torn tail — replays back.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		replay := func(name string, b []byte) (map[Key]Result, ReplayStats, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return ReplayWithStats(path)
		}

		got, st, err := replay("whole.jsonl", data)
		if err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("replay error other than an over-long line: %v", err)
			}
			return
		}
		if len(got) > st.Records || st.Tail < 0 || st.Tail > int64(len(data)) {
			t.Fatalf("%d keys, stats %+v for %d bytes", len(got), st, len(data))
		}
		prefix := data[:st.Tail]
		again, pst, err := replay("prefix.jsonl", prefix)
		if err != nil {
			t.Fatalf("replaying the trusted prefix: %v", err)
		}
		if pst != (ReplayStats{Records: st.Records, Tail: st.Tail}) || !reflect.DeepEqual(again, got) {
			t.Fatalf("trusted prefix replays to %d keys, stats %+v; the whole file to %d keys, stats %+v",
				len(again), pst, len(got), st)
		}

		path := filepath.Join(dir, "appended.jsonl")
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Append(path)
		if err != nil {
			t.Fatal(err)
		}
		k := Key{Gen: 1, Bench: "fuzz", Topology: "1x1-0000000000000000", Policy: "cilk", P: 1, Seed: 7}
		r := Result{Time: 11, Work: 7, Sched: 3, Idle: 1}
		if err := w.Write(k, r); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		appended, ast, err := ReplayWithStats(path)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		got[k] = r
		if ast.Skipped != 0 || ast.Records != st.Records+1 || !reflect.DeepEqual(appended, got) {
			t.Fatalf("after appending one record: %d keys, stats %+v; want %d keys, %d records, none skipped",
				len(appended), ast, len(got), st.Records+1)
		}
	})
}
