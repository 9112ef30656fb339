// Package exec runs the harness's independent simulation jobs on a bounded,
// cancellable worker pool.
//
// Every experiment the harness regenerates — each (spec, policy, P, seed)
// measurement — is a fully independent simulation: it builds its own
// workload, allocator and runtime, and shares no mutable state with any
// other run. That makes the experiment sweep embarrassingly parallel, and
// this package is the one place that exploits it. ForEach is its one
// fan-out entry point: callers pre-allocate a result slot per index, fill
// slot i from fn(i), and aggregate the slots in canonical (serial) order
// after ForEach returns, so parallel output is byte-identical to serial
// output.
//
// The pool behind ForEach is context-aware: once the context is cancelled,
// jobs not yet started are skipped (jobs already running finish —
// simulations do not observe the context), the submission side drains
// without blocking, and ForEach reports the context's error. That is what
// makes a multi-hour sweep interruptible at per-simulation granularity
// without leaking goroutines.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
)

// DefaultJobs is the default worker count for parallel experiment
// execution: one worker per available CPU.
func DefaultJobs() int { return runtime.NumCPU() }

// job pairs a submitted function with its position in the caller's
// canonical order.
type job struct {
	idx int
	fn  func() error
}

// pool executes submitted jobs on a fixed number of worker goroutines.
//
// A pool with one worker degenerates to a serial loop: jobs run inline on
// submit, in submission order, and after the first failure (or once ctx is
// done) subsequent jobs are skipped — exactly the control flow of the serial
// code the pool replaces. With more workers, jobs already started run to
// completion, but once a failure is recorded or the context is cancelled,
// workers skip jobs they have not started yet: every caller discards all
// results on error, so finishing the sweep after a failure would only burn
// cycles.
//
// Multi-error contract: every failure that does run to completion is
// retained. wait returns a single failure unwrapped, and aggregates several
// with errors.Join in ascending submission-index order — deterministic no
// matter which workers observed the failures, and transparent to errors.Is/
// errors.As callers either way. With no job failure, wait returns the
// context's error. Note that skip-after-first-error makes "several failures"
// a race-dependent set (jobs in flight when the first failure lands may
// still fail); only the lowest-indexed failure is guaranteed present, which
// is why callers that need one canonical error inspect Join's first operand.
type pool struct {
	workers int
	ch      chan job
	wg      sync.WaitGroup

	mu   sync.Mutex
	errs []indexedErr
}

// indexedErr pairs a job failure with the job's submission index, so wait
// can order aggregated failures canonically.
type indexedErr struct {
	idx int
	err error
}

// newPool starts a pool with the given number of workers; counts below one
// are treated as one. ctx bounds every job not yet started: cancelling it
// makes the pool skip the rest of the sweep. The context is call-scoped —
// handed to each worker goroutine, never stored — and the same context
// must flow through submit and wait. A nil ctx means Background.
func newPool(ctx context.Context, workers int) *pool {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	p := &pool{workers: workers}
	if workers > 1 {
		// A small buffer keeps workers fed without letting the submitter
		// race arbitrarily far ahead of execution.
		p.ch = make(chan job, 2*workers)
		for i := 0; i < workers; i++ {
			p.wg.Add(1)
			go p.worker(ctx)
		}
	}
	return p
}

func (p *pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for j := range p.ch {
		if p.skip(ctx) {
			continue
		}
		if err := j.fn(); err != nil {
			p.record(j.idx, err)
		}
	}
}

// skip reports whether jobs not yet started should be dropped: a previous
// job failed, or the context is done.
func (p *pool) skip(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.errs) > 0
}

func (p *pool) record(idx int, err error) {
	p.mu.Lock()
	p.errs = append(p.errs, indexedErr{idx: idx, err: err})
	p.mu.Unlock()
}

// submit schedules one job. ctx is the same context the pool was started
// with (a serial pool consults it inline; a parallel pool's workers hold
// their own reference). idx is the job's position in the caller's
// canonical serial order; it orders the failures wait aggregates when
// several jobs fail. submit blocks when all workers are busy and the
// buffer is full (backpressure; cancellation unblocks it, because workers
// keep draining the channel); it must not be called after wait, nor from
// inside a job.
func (p *pool) submit(ctx context.Context, idx int, fn func() error) {
	if p.workers == 1 {
		if ctx == nil {
			ctx = context.Background()
		}
		if p.skip(ctx) {
			return
		}
		if err := fn(); err != nil {
			p.record(idx, err)
		}
		return
	}
	p.ch <- job{idx: idx, fn: fn}
}

// wait blocks until every submitted job has finished or been skipped and
// returns the pool's failures per the multi-error contract above: one
// failure unwrapped, several joined in submission-index order, else the
// context's error (so a cancelled sweep surfaces ctx.Err() to its caller).
// The pool cannot be reused after wait. Jobs already running when the
// context is cancelled run to completion before wait returns — the pool
// never abandons a goroutine.
func (p *pool) wait(ctx context.Context) error {
	if p.workers > 1 {
		close(p.ch)
		p.wg.Wait()
	}
	switch len(p.errs) {
	case 0:
	case 1:
		return p.errs[0].err
	default:
		sort.Slice(p.errs, func(i, j int) bool { return p.errs[i].idx < p.errs[j].idx })
		joined := make([]error, len(p.errs))
		for i, e := range p.errs {
			joined[i] = e.err
		}
		return errors.Join(joined...)
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ForEach runs fn(0) … fn(n-1) on a pool with the given worker count and
// returns wait's aggregate error (or ctx's error on cancellation).
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p := newPool(ctx, workers)
	for i := 0; i < n; i++ {
		p.submit(ctx, i, func() error { return fn(i) })
	}
	return p.wait(ctx)
}
