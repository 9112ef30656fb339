package harness

// This file is the one grid executor. Every fan-out from a list of runs to
// their results goes through ExecuteGrid: the measurement protocols
// (MeasureAll, MeasureTopologies, Tournament) through gather, the sweep
// service's endpoints (internal/server) and Session.DAGs directly. It
// answers a grid in two passes. The first looks every run's key up in the
// cache and reports the hits, so no hit waits behind a simulation. The
// second fans the misses out with exec.ForEach, each executing through
// the cache (single-flight per key), and reports each run as it finishes.
// Every run is reported once, by index, so a caller that writes slot i
// from report i and folds the slots after ExecuteGrid returns gets the
// same aggregate for every jobs value.
//
// Failure containment happens at this seam. A run that comes back as a
// *RunError is reported with it, and the report's return value decides:
// nil contains it (the grid proceeds, and the protocol folds it into an
// error row; the lowest run index wins, so the reported failure is
// deterministic for a deterministic fault), the error aborts the grid.
// Grid-level errors (cancellation, cache I/O) always abort it.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/sched"
)

// Run is one simulation of a grid: Spec under Policy with Opt, or the
// serial elision of Spec when Policy is nil.
type Run struct {
	Spec   Spec
	Policy sched.Policy
	Opt    Options
	// Baseline marks the runs of the comparison protocol's baseline
	// column (RunMeta.Baseline).
	Baseline bool
}

// ExecuteGrid executes runs through cache (nil: every run simulates) on
// jobs host goroutines. The first pass reports every run the cache holds,
// in index order on the calling goroutine, then calls stored (when
// non-nil) with their count; only then does any miss start. A non-nil sem
// is an admission bound shared with other grids: each miss holds a slot
// of it while it executes, waiting on an identical simulation included.
// report receives every run once, with its index, its KeyFor key, and
// either its totals and Outcome or its contained *RunError (then the
// totals are zero). Calls to report are serialized; the first error it
// returns aborts the grid and is ExecuteGrid's result, as is a
// grid-level error, and cancelling ctx skips every miss not yet started.
func ExecuteGrid(ctx context.Context, jobs int, cache ResultCache, sem chan struct{}, runs []Run,
	stored func(hits int), report func(i int, key journal.Key, res journal.Result, out Outcome, re *RunError) error) error {
	var misses []int
	for i := range runs {
		r := &runs[i]
		if cache != nil {
			key := KeyFor(r.Spec, r.Policy, r.Opt, r.Policy == nil)
			if res, ok := cache.Get(key); ok {
				if err := report(i, key, res, Cached, nil); err != nil {
					return err
				}
				continue
			}
		}
		misses = append(misses, i)
	}
	if stored != nil {
		stored(len(runs) - len(misses))
	}
	var mu sync.Mutex
	return exec.ForEach(ctx, jobs, len(misses), func(k int) error {
		i := misses[k]
		r := &runs[i]
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		serial := r.Policy == nil
		key := KeyFor(r.Spec, r.Policy, r.Opt, serial)
		res, out, err := executeMiss(ctx, cache, key, r.Spec, r.Policy, r.Opt, serial)
		if sem != nil {
			<-sem
		}
		var re *RunError
		if err != nil && !(errors.As(err, &re) && ctx.Err() == nil) {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return report(i, key, res, out, re)
	})
}

// gather is ExecuteGrid for the measurement protocols: it returns the
// runs' totals by index and emits each completed run through opt.OnRun,
// named by its key and marked Replayed when the cache answered it. With
// fails non-nil, a run's *RunError lands in its slot of fails and its
// totals stay zero; otherwise any run's error aborts the grid. Baseline
// is deliberately absent from the key: the two columns of a cilk-vs-cilk
// comparison measure the identical simulation, and the cache dedups by
// content.
func gather(ctx context.Context, opt Options, cache ResultCache, runs []Run, fails []*RunError) ([]journal.Result, error) {
	res := make([]journal.Result, len(runs))
	err := ExecuteGrid(ctx, opt.Jobs, cache, nil, runs, nil, func(i int, key journal.Key, r journal.Result, out Outcome, re *RunError) error {
		if re != nil {
			if fails == nil {
				return re
			}
			fails[i] = re // contained: the grid proceeds, the protocol reports an error row
			return nil
		}
		res[i] = r
		if opt.OnRun != nil {
			opt.OnRun(RunMeta{Bench: key.Bench, Policy: key.Policy, P: key.P, Seed: key.Seed,
				Serial: key.Serial, Baseline: runs[i].Baseline, Replayed: out != Simulated, Time: r.Time})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mean averages runs' totals field by field: the paper's "each data point
// is the average of N runs", over scheduler seeds. The dag fields stay
// zero: no row carries a dag.
func mean(rs []journal.Result) journal.Result {
	var m journal.Result
	for _, r := range rs {
		m.Time += r.Time
		m.Work += r.Work
		m.Sched += r.Sched
		m.Idle += r.Idle
	}
	n := int64(len(rs))
	m.Time /= n
	m.Work /= n
	m.Sched /= n
	m.Idle /= n
	return m
}
