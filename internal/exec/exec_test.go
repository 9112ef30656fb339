package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCompletesAllJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		const n = 100
		done := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&done[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, d := range done {
			if d != 1 {
				t.Fatalf("workers=%d: job %d ran %d times, want 1", workers, i, d)
			}
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int32
	err := ForEach(context.Background(), workers, 64, func(int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent jobs, want <= %d", m, workers)
	}
}

func TestWaitReportsErrors(t *testing.T) {
	errs := map[int]error{
		7:  errors.New("err7"),
		3:  errors.New("err3"),
		50: errors.New("err50"),
	}

	// Serial pools short-circuit: job 3 fails first and 7/50 never run,
	// so the single failure comes back unwrapped.
	err := ForEach(context.Background(), 1, 64, func(i int) error { return errs[i] })
	if !errors.Is(err, errs[3]) {
		t.Errorf("workers=1: got %v, want err3", err)
	}
	if err.Error() != "err3" {
		t.Errorf("workers=1: single failure should be unwrapped, got %q", err.Error())
	}

	// Parallel pools retain every failure that ran (the skip-after-failure
	// optimization makes the set race-dependent, but the lowest index is
	// always among them) and join them in index order — never a fabricated
	// error.
	err = ForEach(context.Background(), 4, 64, func(i int) error { return errs[i] })
	if err == nil {
		t.Fatal("workers=4: got nil, want at least one injected error")
	}
	if !errors.Is(err, errs[3]) && !errors.Is(err, errs[7]) && !errors.Is(err, errs[50]) {
		t.Errorf("workers=4: got %v, want (a join of) the injected errors", err)
	}

	// With exactly one failing job, the reported error is deterministic
	// and unwrapped regardless of worker count.
	for _, workers := range []int{2, 8} {
		err := ForEach(context.Background(), workers, 64, func(i int) error {
			if i == 7 {
				return errs[7]
			}
			return nil
		})
		if err == nil || err.Error() != "err7" {
			t.Errorf("workers=%d: got %v, want err7", workers, err)
		}
	}
}

func TestWaitJoinsMultipleErrorsInIndexOrder(t *testing.T) {
	// Hold all four failing jobs at a barrier until each has started, so
	// every one of them runs (none is skipped) no matter how the workers
	// race — then wait must retain all four, joined in ascending
	// submission-index order regardless of completion order.
	const workers = 4
	ctx := context.Background()
	p := newPool(ctx, workers)
	var started sync.WaitGroup
	started.Add(workers)
	errAt := make(map[int]error, workers)
	for _, idx := range []int{9, 2, 31, 17} {
		errAt[idx] = fmt.Errorf("job %d failed", idx)
	}
	for idx, e := range errAt {
		idx, e := idx, e
		p.submit(ctx, idx, func() error {
			started.Done()
			started.Wait()
			return e
		})
	}
	err := p.wait(ctx)
	if err == nil {
		t.Fatal("wait = nil, want joined errors")
	}
	for _, e := range errAt {
		if !errors.Is(err, e) {
			t.Errorf("errors.Is(err, %v) = false; every completed failure must be retained", e)
		}
	}
	want := "job 2 failed\njob 9 failed\njob 17 failed\njob 31 failed"
	if err.Error() != want {
		t.Errorf("joined error not in submission-index order:\ngot  %q\nwant %q", err.Error(), want)
	}
}

func TestSubmitAfterCancelSkipsJob(t *testing.T) {
	// Submitting after the pool's context is cancelled must neither run
	// the job nor wedge the submitter: workers keep draining the channel,
	// and wait reports the cancellation.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := newPool(ctx, workers)
		var ran atomic.Int32
		p.submit(ctx, 0, func() error { ran.Add(1); return nil })
		cancel()
		// Post-cancel submissions: enough of them to overflow the channel
		// buffer if workers stopped draining.
		for i := 1; i <= 64; i++ {
			p.submit(ctx, i, func() error { ran.Add(1); return nil })
		}
		if err := p.wait(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: wait = %v, want context.Canceled", workers, err)
		}
		// Job 0 may or may not have beaten the cancellation; the 64
		// post-cancel jobs must all have been skipped.
		if got := ran.Load(); got > 1 {
			t.Errorf("workers=%d: %d jobs ran after cancellation, want <= 1", workers, got)
		}
	}
}

func TestSerialPoolRunsInlineInOrderAndShortCircuits(t *testing.T) {
	ctx := context.Background()
	p := newPool(ctx, 1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		p.submit(ctx, i, func() error {
			order = append(order, i) // inline: no locking needed
			if i == 4 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
	}
	if err := p.wait(ctx); err == nil || err.Error() != "boom at 4" {
		t.Fatalf("wait = %v, want boom at 4", err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("ran jobs %v, want %v (short-circuit after failure)", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran jobs %v, want %v", order, want)
		}
	}
}

func TestParallelPoolSkipsJobsAfterFailure(t *testing.T) {
	const n = 256
	ctx := context.Background()
	p := newPool(ctx, 4)
	failed := make(chan struct{})
	p.submit(ctx, 0, func() error {
		close(failed)
		return errors.New("early failure")
	})
	<-failed
	// Give the worker ample time to record the failure; every job
	// submitted below should then be skipped, not executed.
	time.Sleep(20 * time.Millisecond)
	var ran atomic.Int32
	for i := 1; i < n; i++ {
		p.submit(ctx, i, func() error {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	}
	if err := p.wait(ctx); err == nil || err.Error() != "early failure" {
		t.Fatalf("wait = %v, want early failure", err)
	}
	// The skip is an optimization, not a hard contract, so allow a few
	// stragglers that raced the error record — but running the whole
	// sweep after a failure is the bug this pins against.
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d jobs ran after the failure; workers should skip once an error is recorded", got, n-1)
	}
}

func TestForEachAccumulates(t *testing.T) {
	var mu sync.Mutex
	sum := 0
	if err := ForEach(context.Background(), 4, 20, func(i int) error {
		mu.Lock()
		sum += i
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 190 {
		t.Errorf("sum = %d, want 190", sum)
	}
}

func TestDefaultJobsPositive(t *testing.T) {
	if DefaultJobs() < 1 {
		t.Errorf("DefaultJobs() = %d, want >= 1", DefaultJobs())
	}
}

func TestPreCancelledContextSkipsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(ctx, workers, 64, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d jobs ran under a pre-cancelled context", workers, ran.Load())
		}
	}
}

func TestMidRunCancellationStopsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 512
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 4, n, func(i int) error {
		if ran.Add(1) == 8 {
			cancel() // cancel from inside the sweep, mid-run
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight jobs finish; everything else is skipped. Allow the few
	// stragglers that raced the cancellation.
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d jobs ran after mid-run cancellation", got, n)
	}
	// All pool goroutines must have exited by the time wait returned.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestJobErrorBeatsLaterCancellation(t *testing.T) {
	// A real job failure recorded before cancellation is the more useful
	// report; ctx.Err() is the fallback, not an override.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEach(ctx, 1, 8, func(i int) error {
		if i == 2 {
			cancel()
			return errors.New("real failure")
		}
		return nil
	})
	if err == nil || err.Error() != "real failure" {
		t.Errorf("err = %v, want the recorded job failure", err)
	}
}
