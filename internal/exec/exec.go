// Package exec runs the harness's independent simulation jobs on a bounded,
// cancellable set of host goroutines.
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
// ForEach is context-aware: once the context is cancelled, or once a job
// has failed, no further job starts (jobs already running finish —
// simulations do not observe the context), and ForEach returns only after
// every goroutine it started has exited. That is what makes a multi-hour
// sweep interruptible at per-simulation granularity without leaking
// goroutines.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs is the default worker count for parallel experiment
// execution: one worker per available CPU.
func DefaultJobs() int { return runtime.NumCPU() }

// ForEach runs fn(0) … fn(n-1) on min(workers, n) goroutines (a worker
// count below one means one). Each goroutine takes the next index in
// ascending order until the indices run out, a job has failed, or ctx is
// done; so with one worker the jobs run in index order and stop at the
// first failure, like the serial loop they replace.
//
// ForEach returns once every started job has finished. Its error is the
// failure of the lowest-indexed job that failed, else ctx's error: a job
// failure is the more useful report, and for a deterministic fault the
// lowest index is deterministic too. Jobs in flight when the first failure
// lands may still fail; only the lowest of those failures is reported. A
// nil ctx means Background.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx int
		err    error
	)
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil || i < errIdx {
						errIdx, err = i, e
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}
