package harness

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// concurrent runs of a Jobs > 1 grid. onGet, if set, sees the number of
// Gets so far, this one included, before the lookup. Put waits for
// putGate, if set, to close; it fails after a timeout rather than hang
// the test.
type memCache struct {
	Memo
	mu         sync.Mutex
	gets, puts int
	fail       error
	onGet      func(gets int)
	putGate    chan struct{}
}

func newMemCache() *memCache { return &memCache{} }

func (c *memCache) Get(k journal.Key) (journal.Result, bool) {
	c.mu.Lock()
	c.gets++
	n := c.gets
	c.mu.Unlock()
	if c.onGet != nil {
		c.onGet(n)
	}
	return c.Memo.Get(k)
}

func (c *memCache) Put(k journal.Key, r journal.Result) error {
	if c.putGate != nil {
		select {
		case <-c.putGate:
		case <-time.After(10 * time.Second):
			return errors.New("memCache: put gate never opened")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.puts++
	return c.Memo.Put(k, r)
}

// openAt returns an onGet hook that closes gate once Get has been called
// n times.
func openAt(n int, gate chan struct{}) func(int) {
	var once sync.Once
	return func(gets int) {
		if gets >= n {
			once.Do(func() { close(gate) })
		}
	}
}

func TestExecuteThroughCachesRuns(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 4, Seed: 2, Verify: true}
	c := newMemCache()

	cold, out, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if out != Simulated {
		t.Errorf("first execution: outcome %d, want Simulated", out)
	}
	if c.puts != 1 {
		t.Errorf("cold run recorded %d puts, want 1", c.puts)
	}
	if cold.Time <= 0 || cold.Work <= 0 {
		t.Errorf("implausible result: %+v", cold)
	}

	warm, out, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if out != Cached {
		t.Errorf("second execution: outcome %d, want Cached", out)
	}
	if warm != cold {
		t.Errorf("warm result diverged: %+v vs %+v", warm, cold)
	}
	if c.puts != 1 {
		t.Errorf("warm run re-put: %d puts", c.puts)
	}

	// A serial run of the same tuple is a distinct address.
	_, out, err = ExecuteThrough(t.Context(), c, spec, nil, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if out != Simulated {
		t.Errorf("serial run: outcome %d, want Simulated (not the parallel run's record)", out)
	}
	if c.puts != 2 {
		t.Errorf("after serial run: %d puts, want 2", c.puts)
	}
}

func TestExecuteThroughNilCacheAndPutError(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 1}

	res, out, err := ExecuteThrough(t.Context(), nil, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if out != Simulated || res.Time <= 0 {
		t.Errorf("nil cache: outcome=%d res=%+v", out, res)
	}

	c := newMemCache()
	boom := errors.New("store: disk full")
	c.fail = boom
	if _, _, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false); !errors.Is(err, boom) {
		t.Errorf("Put failure must surface as a grid-level error, got %v", err)
	}
}

// TestExecuteThroughSimulatesEachKeyOncePerCache misses one key from n
// goroutines at once. The cache's Put waits until all n have looked the
// key up, so without coalescing every one of them would simulate and put.
// With it, one leads and puts once, and the others take its result.
func TestExecuteThroughSimulatesEachKeyOncePerCache(t *testing.T) {
	const n = 4
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 5, Verify: true}
	c := newMemCache()
	c.putGate = make(chan struct{})
	c.onGet = openAt(n, c.putGate)

	res := make([]journal.Result, n)
	outs := make([]Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], outs[i], errs[i] = ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
		}()
	}
	wg.Wait()

	leader := -1
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if outs[i] == Simulated {
			if leader >= 0 {
				t.Errorf("calls %d and %d both simulated", leader, i)
			}
			leader = i
		}
	}
	if leader < 0 {
		t.Fatalf("no call simulated: outcomes %v", outs)
	}
	for i := range n {
		if i == leader {
			continue
		}
		if outs[i] != Coalesced && outs[i] != Cached {
			t.Errorf("call %d: outcome %d, want Coalesced or Cached", i, outs[i])
		}
		if !reflect.DeepEqual(res[i], res[leader]) {
			t.Errorf("call %d: %+v, the leader's %+v", i, res[i], res[leader])
		}
	}
	if c.puts != 1 {
		t.Errorf("%d puts for one key, want 1", c.puts)
	}
}

// waitForWaiter blocks until some goroutine waits inside ExecuteThrough on
// another call's run (its select on the run and its own context).
func waitForWaiter(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "harness.ExecuteThrough(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no call ever waited on another call's run")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecuteThroughCancelledLeaderHandsOver cancels a leader while a
// second call waits on its run: the waiter, whose context is live, takes
// the run over and returns its result, the leader returns its
// cancellation, and the cache holds only the waiter's success.
func TestExecuteThroughCancelledLeaderHandsOver(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 6, Verify: true}
	want, err := Execute(t.Context(), spec, sched.NUMAWS, opt.fill(), false)
	if err != nil {
		t.Fatal(err)
	}

	c := newMemCache()
	leading, release := make(chan struct{}), make(chan struct{})
	c.onGet = func(gets int) {
		if gets == 2 { // the leader's re-check, inside its flight
			close(leading)
			<-release
		}
	}
	ctx, cancel := context.WithCancel(t.Context())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := ExecuteThrough(ctx, c, spec, sched.NUMAWS, opt, false)
		leaderErr <- err
	}()
	<-leading

	type result struct {
		res journal.Result
		out Outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		res, out, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
		waiter <- result{res, out, err}
	}()
	waitForWaiter(t)
	cancel()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader: %v, want its cancellation", err)
	}
	w := <-waiter
	if w.err != nil {
		t.Fatalf("waiter: %v", w.err)
	}
	if w.out != Simulated || w.res != want {
		t.Errorf("waiter: outcome %d, %+v; want Simulated, %+v", w.out, w.res, want)
	}
	if c.puts != 1 {
		t.Errorf("%d puts, want 1 (the waiter's success only)", c.puts)
	}
	if got, ok := c.Memo.Get(KeyFor(spec, sched.NUMAWS, opt, false)); !ok || got != want {
		t.Errorf("cache holds %+v, %v; want the waiter's result", got, ok)
	}
}

// TestExecuteThroughDoesNotCoalesceAcrossCaches runs one key through two
// memos at once. Each memo's Put waits until the other memo's call has
// looked the key up a second time, which only a leader does, so both
// calls must lead: neither takes a result that went into the other's
// memo, and each memo ends up holding the record.
func TestExecuteThroughDoesNotCoalesceAcrossCaches(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 7, Verify: true}
	a, b := newMemCache(), newMemCache()
	a.putGate, b.putGate = make(chan struct{}), make(chan struct{})
	a.onGet, b.onGet = openAt(2, b.putGate), openAt(2, a.putGate)

	caches := []*memCache{a, b}
	res := make([]journal.Result, 2)
	outs := make([]Outcome, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, c := range caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], outs[i], errs[i] = ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
		}()
	}
	wg.Wait()

	key := KeyFor(spec, sched.NUMAWS, opt, false)
	for i, c := range caches {
		if errs[i] != nil {
			t.Fatalf("cache %d: %v", i, errs[i])
		}
		if outs[i] != Simulated {
			t.Errorf("cache %d: outcome %d, want Simulated", i, outs[i])
		}
		if got, ok := c.Memo.Get(key); !ok || got != res[i] {
			t.Errorf("cache %d holds %+v, %v; want %+v", i, got, ok, res[i])
		}
	}
	if res[0] != res[1] {
		t.Errorf("the two runs differ: %+v vs %+v", res[0], res[1])
	}
}
