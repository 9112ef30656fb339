package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
)

func key(i int) journal.Key {
	return journal.Key{
		Gen: 7, Bench: "heat", Input: "1024x1024", Scale: 1,
		Topology: "4x8-00aabbccddeeff11", Policy: "numaws",
		P: 8, Seed: int64(i), Verify: true,
	}
}

func result(i int) journal.Result {
	return journal.Result{Time: int64(100 + i), Work: int64(200 + i), Sched: int64(3 + i), Idle: int64(4 + i)}
}

func TestRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	for i := 1; i <= 3; i++ {
		if err := s.Put(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-putting an existing key is a no-op, not a duplicate record.
	if err := s.Put(key(1), result(1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	c := s.Counters()
	if c.Puts != 3 || c.Records != 0 {
		t.Errorf("counters after writes: %+v", c)
	}
	if r, ok := s.Get(key(2)); !ok || r != result(2) {
		t.Errorf("Get(2) = %v, %v", r, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	c = s2.Counters()
	if c.Records != 3 || c.Skipped != 0 {
		t.Errorf("reopened counters: %+v", c)
	}
	for i := 1; i <= 3; i++ {
		if r, ok := s2.Get(key(i)); !ok || r != result(i) {
			t.Errorf("reopened Get(%d) = %v, %v", i, r, ok)
		}
	}
}

func TestMissingFileIsEmptyStore(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "fresh.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Errorf("fresh store holds %d records", s.Len())
	}
	if err := s.Put(key(1), result(1)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Put(key(i), result(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-line and append trailing garbage, as a
	// crash mid-write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("store file has %d lines, want 3", len(lines))
	}
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := s2.Counters()
	if c.Records != 2 || c.Skipped != 1 {
		t.Errorf("torn store counters: %+v, want 2 records and 1 skipped", c)
	}
	if _, ok := s2.Get(key(3)); ok {
		t.Error("torn record served as a hit")
	}
	// The heal must leave a cleanly appendable file: re-put the torn run
	// and reopen once more — everything replays, nothing skipped.
	if err := s2.Put(key(3), result(3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	c = s3.Counters()
	if c.Records != 3 || c.Skipped != 0 {
		t.Errorf("healed store counters after reopen: %+v, want 3 records and 0 skipped", c)
	}
	if r, ok := s3.Get(key(3)); !ok || r != result(3) {
		t.Errorf("re-put after heal lost: %v, %v", r, ok)
	}
}

func TestGetCountsHitsAndMisses(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(1), result(1)); err != nil {
		t.Fatal(err)
	}
	s.Get(key(1))
	s.Get(key(1))
	s.Get(key(2))
	// Peek answers like Get but leaves the counters alone.
	if r, ok := s.Peek(key(1)); !ok || r != result(1) {
		t.Errorf("Peek(key(1)) = %+v, %v; want the stored result", r, ok)
	}
	if _, ok := s.Peek(key(2)); ok {
		t.Error("Peek(key(2)) found a record never stored")
	}
	c := s.Counters()
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
}
