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

	// One worker short-circuits: job 3 fails first and 7/50 never run.
	err := ForEach(context.Background(), 1, 64, func(i int) error { return errs[i] })
	if err != errs[3] {
		t.Errorf("workers=1: got %v, want err3", err)
	}

	// Several workers report one of the injected failures as is (which
	// ones ran is race-dependent) — never a fabricated error.
	err = ForEach(context.Background(), 4, 64, func(i int) error { return errs[i] })
	if err != errs[3] && err != errs[7] && err != errs[50] {
		t.Errorf("workers=4: got %v, want one of the injected errors", err)
	}

	// With exactly one failing job, the reported error is deterministic
	// regardless of worker count.
	for _, workers := range []int{2, 8} {
		err := ForEach(context.Background(), workers, 64, func(i int) error {
			if i == 7 {
				return errs[7]
			}
			return nil
		})
		if err != errs[7] {
			t.Errorf("workers=%d: got %v, want err7", workers, err)
		}
	}
}

func TestLowestIndexFailureWins(t *testing.T) {
	// Hold the first four jobs at a barrier until each has started, so
	// all of them run and fail no matter how the workers race: the
	// reported failure is job 0's, whatever the completion order.
	const workers = 4
	var started sync.WaitGroup
	started.Add(workers)
	err := ForEach(context.Background(), workers, 64, func(i int) error {
		if i >= workers {
			return nil
		}
		started.Done()
		started.Wait()
		time.Sleep(time.Duration(workers-i) * time.Millisecond)
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Errorf("err = %v, want job 0 failed", err)
	}
}

func TestSubmitAfterCancelSkipsJob(t *testing.T) {
	// No job starts once the context is cancelled: every job waits for
	// job 0's cancellation, so only the jobs already taken by then run,
	// and ForEach reports the cancellation.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, workers, 64, func(i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			<-ctx.Done()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := int(ran.Load()); got > workers {
			t.Errorf("workers=%d: %d jobs ran, want <= %d", workers, got, workers)
		}
	}
}

func TestSerialPoolRunsInlineInOrderAndShortCircuits(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 1, 10, func(i int) error {
		order = append(order, i) // one worker: no locking needed
		if i == 4 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom at 4" {
		t.Fatalf("err = %v, want boom at 4", err)
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
	// Job 0 fails while every other job waits for it and then runs
	// slowly: after the failure no job starts, so only the jobs already
	// in flight finish.
	const n, workers = 256, 4
	failing := make(chan struct{})
	var ran atomic.Int32
	err := ForEach(context.Background(), workers, n, func(i int) error {
		if i == 0 {
			close(failing)
			return errors.New("early failure")
		}
		<-failing
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v, want early failure", err)
	}
	// The failure is recorded just after job 0 returns, so allow a few
	// stragglers that raced it — but running the whole sweep after a
	// failure is the bug this pins against.
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d jobs ran after the failure; no job may start once one has failed", got, n-1)
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
	// Every goroutine ForEach started must have exited by the time it
	// returned.
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
