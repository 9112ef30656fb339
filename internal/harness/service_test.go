package harness

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/topology"
)

// TestKeyForMatchesGridStoreKey pins the seam the sweep service depends
// on: every record a measurement grid writes to its store is keyed by
// KeyFor of its run, so a service store and a -journal file are mutually
// intelligible.
func TestKeyForMatchesGridStoreKey(t *testing.T) {
	spec := specByName(t, "fib")
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Topology: topology.TwoSocket(4), P: 4, Seed: 3, Verify: true, Policy: sched.NUMAWS, Cache: st}
	if _, err := MeasureAll(t.Context(), []Spec{spec}, opt); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := journal.ReplayWithStats(path)
	if err != nil {
		t.Fatal(err)
	}

	opt = opt.fill()
	o1 := opt
	o1.P = 1
	want := []journal.Key{
		KeyFor(spec, nil, opt, true),
		KeyFor(spec, sched.Cilk, o1, false), KeyFor(spec, sched.Cilk, opt, false),
		KeyFor(spec, sched.NUMAWS, o1, false), KeyFor(spec, sched.NUMAWS, opt, false),
	}
	if len(got) != len(want) {
		t.Errorf("store holds %d keys, want %d: %+v", len(got), len(want), got)
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("store lacks KeyFor's key %+v", k)
		}
	}
}

// memCache is a Memo recording its traffic. It is safe for the
// concurrent runs of a Jobs > 1 grid.
type memCache struct {
	Memo
	mu   sync.Mutex
	puts int
	fail error
}

func newMemCache() *memCache { return &memCache{} }

func (c *memCache) Put(k journal.Key, r journal.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.puts++
	return c.Memo.Put(k, r)
}

func TestExecuteThroughCachesRuns(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 4, Seed: 2, Verify: true}
	c := newMemCache()

	cold, hit, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first execution reported a cache hit")
	}
	if c.puts != 1 {
		t.Errorf("cold run recorded %d puts, want 1", c.puts)
	}
	if cold.Time <= 0 || cold.Work <= 0 {
		t.Errorf("implausible result: %+v", cold)
	}

	warm, hit, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second execution missed the cache")
	}
	if warm != cold {
		t.Errorf("warm result diverged: %+v vs %+v", warm, cold)
	}
	if c.puts != 1 {
		t.Errorf("warm run re-put: %d puts", c.puts)
	}

	// A serial run of the same tuple is a distinct address.
	_, hit, err = ExecuteThrough(t.Context(), c, spec, nil, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("serial run hit the parallel run's record")
	}
	if c.puts != 2 {
		t.Errorf("after serial run: %d puts, want 2", c.puts)
	}
}

func TestExecuteThroughNilCacheAndPutError(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 1}

	res, hit, err := ExecuteThrough(t.Context(), nil, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit || res.Time <= 0 {
		t.Errorf("nil cache: hit=%v res=%+v", hit, res)
	}

	c := newMemCache()
	boom := errors.New("store: disk full")
	c.fail = boom
	if _, _, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false); !errors.Is(err, boom) {
		t.Errorf("Put failure must surface as a grid-level error, got %v", err)
	}
}
