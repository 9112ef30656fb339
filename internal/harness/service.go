package harness

// This file is the sweep service's execute-through-cache seam
// (internal/server): single runs addressed by their full journal key,
// simulated only when a persistent result cache does not already hold
// them. The measurement grids run through the same seam (Options.Cache),
// so a service store and a -journal file are one format — a record written
// by either is a hit for both. Memo is the in-memory ResultCache for
// callers with no file to keep.

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sched"
)

// ResultCache is the persistent lookup the service executes through;
// internal/store implements it. Get reports a prior completion; Put
// durably records a new one. A Put error is grid-level — a cache that
// cannot record makes every later "cached" reply untrustworthy, so the
// caller stops rather than serving through it.
type ResultCache interface {
	Get(journal.Key) (journal.Result, bool)
	Put(journal.Key, journal.Result) error
}

// Memo is a ResultCache held in memory: a mutex-guarded map from run key
// to totals, safe for concurrent use by a grid's job pool. It is what a
// numaws.Session without a journal executes through, so a session
// simulates each distinct key at most once. Put never fails and Memo
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

// ExecuteThrough is Execute behind a ResultCache: a key the cache holds
// returns its recorded totals without simulating (hit true); a miss
// simulates, records the result durably, and returns it. Failed runs
// (contained *RunError, cancellation) are never cached — like the
// journal, the cache holds only successes.
func ExecuteThrough(ctx context.Context, c ResultCache, spec Spec, pol sched.Policy, opt Options, serial bool) (journal.Result, bool, error) {
	opt = opt.fill()
	if c == nil {
		res, err := Execute(ctx, spec, pol, opt, serial)
		return res, false, err
	}
	key := KeyFor(spec, pol, opt, serial)
	if res, ok := c.Get(key); ok {
		return res, true, nil
	}
	res, err := Execute(ctx, spec, pol, opt, serial)
	if err != nil {
		return journal.Result{}, false, err
	}
	if err := c.Put(key, res); err != nil {
		return journal.Result{}, false, err
	}
	return res, false, nil
}
