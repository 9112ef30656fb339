package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func key(i int) Key {
	return Key{
		Gen: 3, Bench: "fib", Input: "n=30", Scale: 0,
		Topology: "4x8-0011223344556677", Policy: "numaws",
		P: 8, Seed: int64(i), Serial: false, Verify: true,
	}
}

func result(i int) Result {
	return Result{Time: int64(1000 + i), Work: int64(2000 + i), Sched: int64(30 + i), Idle: int64(40 + i)}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]Result{}
	for i := 0; i < 10; i++ {
		k, r := key(i), result(i)
		if err := w.Write(k, r); err != nil {
			t.Fatal(err)
		}
		want[k] = r
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReplayWithStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay mismatch:\ngot  %v\nwant %v", got, want)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	got, _, err := ReplayWithStats(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatalf("missing journal must be an empty journal, got error %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from a missing file", len(got))
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Write(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the file at every byte offset inside the final record: all
	// 5 prefixes must replay to exactly the records fully written before
	// the cut.
	lines := strings.SplitAfter(strings.TrimSuffix(string(whole), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("journal has %d lines, want 5", len(lines))
	}
	prefix := strings.Join(lines[:4], "")
	last := lines[4]
	for cut := 0; cut < len(last); cut++ {
		torn := prefix + last[:cut]
		tornPath := filepath.Join(t.TempDir(), "torn.jsonl")
		if err := os.WriteFile(tornPath, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReplayWithStats(tornPath)
		if err != nil {
			t.Fatalf("cut=%d: replay of torn journal errored: %v", cut, err)
		}
		if len(got) != 4 {
			t.Fatalf("cut=%d: replayed %d records, want the 4 intact ones", cut, len(got))
		}
		for i := 0; i < 4; i++ {
			if got[key(i)] != result(i) {
				t.Fatalf("cut=%d: record %d corrupted by torn tail: %v", cut, i, got[key(i)])
			}
		}
	}
}

func TestReplayStopsAtChecksumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Write(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the second record's payload: valid JSON, wrong
	// checksum. Replay must keep record 0 and distrust everything from
	// the corruption on — including the intact third record, because an
	// append-only journal has no way to know what else moved.
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	corrupt := strings.Replace(lines[1], `"bench":"fib"`, `"bench":"fub"`, 1)
	if corrupt == lines[1] {
		t.Fatal("corruption substitution did not apply")
	}
	mutPath := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(mutPath, []byte(lines[0]+corrupt+lines[2]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReplayWithStats(mutPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[key(0)] != result(0) {
		t.Errorf("replay past corruption: got %v, want only record 0", got)
	}
}

func TestAppendExtendsExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(key(0), result(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write(key(1), result(1)); err != nil {
		t.Fatal(err)
	}
	// A re-journaled duplicate: the later record wins on replay.
	if err := w2.Write(key(0), Result{Time: 7, Work: 8, Sched: 9, Idle: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReplayWithStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[key(1)] != result(1) {
		t.Errorf("appended record lost: %v", got[key(1)])
	}
	if (got[key(0)] != Result{Time: 7, Work: 8, Sched: 9, Idle: 10}) {
		t.Errorf("duplicate key: later record must win, got %v", got[key(0)])
	}
}

func TestCloseNilAndDouble(t *testing.T) {
	var w *Writer
	if err := w.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w2, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestDistinctKeysStayDistinct(t *testing.T) {
	// Every field of the key must participate in identity; a journal that
	// conflated, say, serial and parallel rows would resume wrong numbers.
	base := key(0)
	variants := []Key{base}
	mut := func(f func(*Key)) {
		k := base
		f(&k)
		variants = append(variants, k)
	}
	mut(func(k *Key) { k.Gen++ })
	mut(func(k *Key) { k.Bench = "lu" })
	mut(func(k *Key) { k.Input = "n=31" })
	mut(func(k *Key) { k.Scale = 1 })
	mut(func(k *Key) { k.Topology = "2x16-aabbccddeeff0011" })
	mut(func(k *Key) { k.Policy = "cilk" })
	mut(func(k *Key) { k.P = 16 })
	mut(func(k *Key) { k.Seed = 99 })
	mut(func(k *Key) { k.Serial = true })
	mut(func(k *Key) { k.Verify = false })

	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range variants {
		if err := w.Write(k, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReplayWithStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(variants) {
		t.Fatalf("replayed %d records from %d distinct keys", len(got), len(variants))
	}
	for i, k := range variants {
		if got[k] != result(i) {
			t.Errorf("variant %d: got %v, want %v", i, got[k], result(i))
		}
	}
}

func TestReplayWithStatsCountsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Write(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("journal has %d lines, want 4", len(lines))
	}
	// Corrupt record 2's payload (valid JSON, wrong checksum): replay must
	// keep records 0-1, skip the corrupt line AND the intact record after
	// it, and report the trusted prefix ending where line 2 begins.
	corrupt := strings.Replace(lines[2], `"bench":"fib"`, `"bench":"fub"`, 1)
	if corrupt == lines[2] {
		t.Fatal("corruption substitution did not apply")
	}
	mutPath := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(mutPath, []byte(lines[0]+lines[1]+corrupt+lines[3]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReplayWithStats(mutPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || st.Records != 2 {
		t.Errorf("got %d records (stats %d), want the 2 before the corruption", len(got), st.Records)
	}
	if st.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2 (the corrupt line and the orphaned intact one)", st.Skipped)
	}
	wantTail := int64(len(lines[0]) + len(lines[1]))
	if st.Tail != wantTail {
		t.Errorf("Tail = %d, want %d (end of the trusted prefix)", st.Tail, wantTail)
	}
}

func TestReplayWithStatsCleanJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Write(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ReplayWithStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || st.Records != 3 || st.Skipped != 0 {
		t.Errorf("clean journal: got %d records, stats %+v", len(got), st)
	}
	if st.Tail != fi.Size() {
		t.Errorf("Tail = %d, want the whole file (%d)", st.Tail, fi.Size())
	}
}

func TestReplayWithStatsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Write(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	torn := lines[0] + lines[1][:len(lines[1])/2]
	tornPath := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(tornPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReplayWithStats(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || st.Records != 1 || st.Skipped != 1 {
		t.Errorf("torn tail: got %d records, stats %+v", len(got), st)
	}
	if st.Tail != int64(len(lines[0])) {
		t.Errorf("Tail = %d, want %d (end of the intact first record)", st.Tail, len(lines[0]))
	}
}

// TestRecordBytes pins the record format byte for byte, so a change to the
// record's shape is a deliberate one. A parallel record carries its dag's
// work and span; a serial record has no dag and keeps the bytes it had
// before records carried one.
func TestRecordBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	par := Result{Time: 1000, Work: 2000, Sched: 30, Idle: 40, DAGWork: 1900, DAGSpan: 120}
	if err := w.Write(key(1), par); err != nil {
		t.Fatal(err)
	}
	sk := key(1)
	sk.Policy, sk.P, sk.Serial = "serial", 1, true
	if err := w.Write(sk, Result{Time: 1800, Work: 1800}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"crc":2379135413,"rec":{"gen":3,"bench":"fib","input":"n=30","scale":0,"topology":"4x8-0011223344556677","policy":"numaws","p":8,"seed":1,"serial":false,"verify":true,"time":1000,"work":2000,"sched":30,"idle":40,"dag_work":1900,"dag_span":120}}
{"crc":161751399,"rec":{"gen":3,"bench":"fib","input":"n=30","scale":0,"topology":"4x8-0011223344556677","policy":"serial","p":1,"seed":1,"serial":true,"verify":true,"time":1800,"work":1800,"sched":0,"idle":0}}
`
	if string(got) != want {
		t.Errorf("record bytes changed:\ngot  %s\nwant %s", got, want)
	}
}
