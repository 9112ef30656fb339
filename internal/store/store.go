// Package store is the persistent, content-addressed result store behind
// the sweep service and the CLI's -journal/-resume grids: one fsync'd,
// CRC-checksummed record per completed run,
// in internal/journal's record format, indexed in memory for O(1)
// lookups. The address is the full journal.Key — benchmark, input, scale,
// registry generation, topology hash, policy, P, seed, serial, verify —
// so a hit is exactly a run the simulator would reproduce bit for bit,
// and a registry or topology change changes the key instead of serving a
// stale row.
//
// Open replays the file with the journal's torn-tail-tolerant reader and,
// when corruption was found, truncates the file to the trusted prefix
// before appending: the tail is discarded once (counted in Counters, so
// /statusz can report it) and later appends extend a clean file —
// appending past a corrupt line would write records no future replay
// could reach.
package store

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/journal"
)

// Counters is a snapshot of a store's activity: what Open found on disk
// and what Get/Put saw since.
type Counters struct {
	// Records is the number of intact records loaded at Open.
	Records int
	// Skipped is the number of torn or corrupt journal lines discarded at
	// Open — store corruption, zero on a healthy file.
	Skipped int
	Puts    uint64
	Hits    uint64
	Misses  uint64
}

// Store is the on-disk result store plus its in-memory index. Safe for
// concurrent use; it implements harness.ResultCache.
type Store struct {
	path string

	mu  sync.Mutex
	idx map[journal.Key]journal.Result
	w   *journal.Writer

	loaded, skipped    int
	puts, hits, misses uint64
}

// Open replays path (a missing file is an empty store), heals a torn tail
// by truncating to the trusted prefix, and opens the file for appending.
func Open(path string) (*Store, error) {
	idx, st, err := journal.ReplayWithStats(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if st.Skipped > 0 {
		if err := os.Truncate(path, st.Tail); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	w, err := journal.Append(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{path: path, idx: idx, w: w, loaded: st.Records, skipped: st.Skipped}, nil
}

// Path reports the file the store persists to.
func (s *Store) Path() string { return s.path }

// Get reports the recorded result for a key, if present, and counts the
// lookup as a hit or a miss.
func (s *Store) Get(k journal.Key) (journal.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.idx[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return r, ok
}

// Peek is Get without counting: a re-check of a key the caller already
// looked up with Get, so each lookup is counted once.
func (s *Store) Peek(k journal.Key) (journal.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.idx[k]
	return r, ok
}

// Put durably records one completed run: the record is fsync'd before Put
// returns, so a result a client saw stream survives any later crash. A
// key already present is a no-op — records are content-addressed, so the
// write would be byte-identical. (Two concurrent first Puts of one key
// may both append; replay dedups identical records, so the race costs a
// duplicate line, never a wrong result.)
func (s *Store) Put(k journal.Key, r journal.Result) error {
	s.mu.Lock()
	_, present := s.idx[k]
	s.mu.Unlock()
	if present {
		return nil
	}
	if err := s.w.Write(k, r); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.idx[k] = r
	s.puts++
	s.mu.Unlock()
	return nil
}

// Len reports how many distinct run tuples the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Counters snapshots the store's activity.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Records: s.loaded, Skipped: s.skipped,
		Puts: s.puts, Hits: s.hits, Misses: s.misses,
	}
}

// Close closes the underlying file. Records are fsync'd per Put, so no
// data is at risk; safe to call twice.
func (s *Store) Close() error { return s.w.Close() }
