package harness

// This file is the execute-through-cache seam: single runs addressed by
// their full journal key, simulated only when a result cache does not
// already hold them, and at most once at a time per key and cache. The
// grid executor (ExecuteGrid) runs every miss through it, for the sweep
// service (internal/server), the measurement grids (Options.Cache) and
// the facade's sessions alike, so a service store and a -journal file are
// one format — a record written by either is a hit for both. Memo is the
// in-memory ResultCache for callers with no file to keep.

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sched"
)

// ResultCache is the lookup ExecuteThrough executes through;
// internal/store and Memo implement it. Get reports a prior completion;
// Put records a new one. A Put error is grid-level — a cache that cannot
// record makes every later "cached" reply untrustworthy, so the caller
// stops rather than serving through it. A ResultCache's dynamic type must
// be comparable (a pointer, as every implementation is): ExecuteThrough
// keys its in-flight runs by the cache value and the run key together.
type ResultCache interface {
	Get(journal.Key) (journal.Result, bool)
	Put(journal.Key, journal.Result) error
}

// Memo is a ResultCache held in memory: a mutex-guarded map from run key
// to totals, safe for concurrent use by a grid's job pool. It is what a
// numaws.Session without a journal executes through, so a session
// simulates each distinct key at most once, concurrent misses included
// (ExecuteThrough coalesces them). Put never fails and Memo
// never evicts: it grows with the distinct keys recorded. The zero value
// is an empty memo.
type Memo struct {
	mu sync.Mutex
	m  map[journal.Key]journal.Result
}

// Get reports the totals recorded under k.
func (c *Memo) Get(k journal.Key) (journal.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[k]
	return res, ok
}

// Put records res under k.
func (c *Memo) Put(k journal.Key, res journal.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[journal.Key]journal.Result)
	}
	c.m[k] = res
	return nil
}

// KeyFor is the content address of one run, built from the run's spec,
// policy and options; every ResultCache record is keyed with it. Serial
// runs pin Policy "serial" and P 1 — the serial elision
// has no scheduler, so those axes are normalized, not echoed; pol is
// ignored for them and may be nil.
func KeyFor(spec Spec, pol sched.Policy, opt Options, serial bool) journal.Key {
	opt = opt.fill()
	policy, p := "serial", 1
	if !serial {
		policy, p = pol.Name(), opt.P
	}
	return journal.Key{
		Gen: spec.Generation(), Bench: spec.Name, Input: spec.Input,
		Scale: int(spec.SpecScale()), Topology: opt.Topology.Key(),
		Policy: policy, P: p, Seed: opt.Seed,
		Serial: serial, Verify: opt.Verify,
	}
}

// resultOf reduces a run report to its measured totals and its dag:
// exactly what the row fold and Session.DAGs consume and what the store
// persists, so a stored run is indistinguishable from a simulated one.
func resultOf(rep *core.Report) journal.Result {
	res := journal.Result{Time: rep.Time, DAGWork: rep.DAG.Work, DAGSpan: rep.DAG.Span}
	if rep.Sched != nil {
		res.Work = rep.Sched.WorkTotal()
		res.Sched = rep.Sched.SchedTotal()
		res.Idle = rep.Sched.IdleTotal()
	}
	return res
}

// Execute measures one run — the serial elision when serial, one parallel
// simulation otherwise — and reduces the report to the replayable result
// the journal persists.
func Execute(ctx context.Context, spec Spec, pol sched.Policy, opt Options, serial bool) (journal.Result, error) {
	var rep *core.Report
	var err error
	if serial {
		rep, err = RunSerial(ctx, spec, opt)
	} else {
		rep, err = RunOne(ctx, spec, pol, opt)
	}
	if err != nil {
		return journal.Result{}, err
	}
	return resultOf(rep), nil
}

// Outcome says how ExecuteThrough answered a run.
type Outcome uint8

const (
	// Simulated: this call ran the simulation (and recorded it, when
	// there is a cache).
	Simulated Outcome = iota
	// Cached: the cache already held the key.
	Cached
	// Coalesced: a concurrent call of the same key through the same
	// cache led, and its result answered this one.
	Coalesced
)

// flightKey names one run in progress: a key executing through a cache.
// The cache is part of it so a waiter only ever takes a result that went
// into its own cache.
type flightKey struct {
	c   ResultCache
	key journal.Key
}

// flightCall is one run in progress. res, err and abandoned are written
// once, before done is closed; waiters read them only after <-done.
type flightCall struct {
	done      chan struct{}
	res       journal.Result
	err       error
	abandoned bool // err came with the leader's own context done
}

// flights holds the runs in progress, process-wide. An entry lives only
// while its leader runs, so the map is bounded by the concurrent misses.
var flights = struct {
	sync.Mutex
	m map[flightKey]*flightCall
}{m: map[flightKey]*flightCall{}}

// ExecuteThrough is Execute behind a ResultCache: a key the cache holds
// returns its recorded totals without simulating (Cached); a miss
// simulates, records the result, and returns it (Simulated). Concurrent
// misses of one key through one cache simulate once: the first call
// leads and the others wait for its result (Coalesced). Failed runs
// (contained *RunError, cancellation) are never cached — like the
// journal, the cache holds only successes — and a waiter gets the
// leader's error, except that when the leader's own context was
// cancelled, a waiter whose context is live takes the run over. A nil
// cache simulates every call. The Outcome is meaningless with an error.
func ExecuteThrough(ctx context.Context, c ResultCache, spec Spec, pol sched.Policy, opt Options, serial bool) (journal.Result, Outcome, error) {
	key := KeyFor(spec, pol, opt, serial)
	if c != nil {
		if res, ok := c.Get(key); ok {
			return res, Cached, nil
		}
	}
	return executeMiss(ctx, c, key, spec, pol, opt, serial)
}

// executeMiss is ExecuteThrough after its cache lookup missed: the
// single-flight simulation of key, whose record may still have landed
// since the lookup (Cached).
func executeMiss(ctx context.Context, c ResultCache, key journal.Key, spec Spec, pol sched.Policy, opt Options, serial bool) (journal.Result, Outcome, error) {
	opt = opt.fill()
	if c == nil {
		res, err := Execute(ctx, spec, pol, opt, serial)
		return res, Simulated, err
	}
	fk := flightKey{c, key}
	for {
		flights.Lock()
		if f, ok := flights.m[fk]; ok {
			flights.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return journal.Result{}, Simulated, ctx.Err()
			}
			if f.abandoned && ctx.Err() == nil {
				continue
			}
			return f.res, Coalesced, f.err
		}
		f := &flightCall{done: make(chan struct{})}
		flights.m[fk] = f
		flights.Unlock()
		out := Simulated
		// A leader that finished between the caller's lookup and this
		// entry has already recorded the key.
		if res, ok := c.Get(key); ok {
			f.res, out = res, Cached
		} else if f.res, f.err = Execute(ctx, spec, pol, opt, serial); f.err == nil {
			f.err = c.Put(key, f.res)
		}
		if f.err != nil {
			f.res, f.abandoned = journal.Result{}, ctx.Err() != nil
		}
		flights.Lock()
		delete(flights.m, fk)
		flights.Unlock()
		close(f.done)
		return f.res, out, f.err
	}
}
