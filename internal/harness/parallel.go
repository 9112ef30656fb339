package harness

// This file is the harness's one grid executor. Every measurement protocol
// (MeasureAll, MeasureTopologies, Tournament) lists its runs in canonical
// order and hands the list to execute, which fans them out with
// exec.ForEach. Each run is one full simulation with its own workload
// and runtime, and writes its measured totals into the slot with its own
// index; the protocol folds the slots after ForEach returns, so the
// aggregate is byte-identical for every Jobs value. Completed runs are also
// streamed through Options.OnRun in completion order, which is what
// Session.Each builds on.
//
// Failure containment happens at this seam. With contained set, a run that
// comes back as a *RunError stores it in the run's own failure slot and
// returns nil to ForEach: the grid proceeds, and the protocol folds the
// failure into an error row (the lowest run index wins, so the reported
// failure is deterministic for a deterministic fault). Grid-level errors
// (cancellation, cache I/O), and every error of an uncontained grid,
// propagate out of ForEach and abort the grid.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/sched"
)

// run is one simulation of a grid: spec under pol with opt, or the serial
// elision of spec when pol is nil. baseline marks the runs of the
// comparison protocol's baseline column (RunMeta.Baseline).
type run struct {
	spec     Spec
	pol      sched.Policy
	opt      Options
	baseline bool
}

// execute runs every entry of runs through cache (nil: every run
// simulates) on opt.Jobs host goroutines and returns their totals by index.
// With contained, a run's *RunError lands in its slot of the returned
// failures and its result stays zero; otherwise the failures are nil and
// any run's error aborts the grid. Each completed run is emitted through
// opt.OnRun, named by its KeyFor key and marked Replayed when the cache
// answered it. Baseline is deliberately absent from the key: the two
// columns of a cilk-vs-cilk comparison measure the identical simulation,
// and the cache dedups by content.
func execute(ctx context.Context, opt Options, cache ResultCache, runs []run, contained bool) ([]journal.Result, []*RunError, error) {
	res := make([]journal.Result, len(runs))
	var fails []*RunError
	if contained {
		fails = make([]*RunError, len(runs))
	}
	var mu sync.Mutex
	err := exec.ForEach(ctx, opt.Jobs, len(runs), func(i int) error {
		r := runs[i]
		serial := r.pol == nil
		out, outcome, err := ExecuteThrough(ctx, cache, r.spec, r.pol, r.opt, serial)
		if err != nil {
			var re *RunError
			if contained && errors.As(err, &re) && ctx.Err() == nil {
				fails[i] = re
				return nil // contained: the grid proceeds, the protocol reports an error row
			}
			return err
		}
		res[i] = out
		if opt.OnRun != nil {
			key := KeyFor(r.spec, r.pol, r.opt, serial)
			mu.Lock()
			opt.OnRun(RunMeta{Bench: key.Bench, Policy: key.Policy, P: key.P, Seed: key.Seed,
				Serial: serial, Baseline: r.baseline, Replayed: outcome != Simulated, Time: out.Time})
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, fails, nil
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
