package numaws_test

// RunTask and RunTaskSerial run inside the same failure containment as
// the benchmark surfaces: a panicking user computation, a run deadline and
// a cancelled context all come back as errors, promptly, never as a crash
// or a run that ignores them.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/pkg/numaws"
)

// spawnTree is a binary spawn tree with 2^depth leaves, each charging a
// little compute: long enough to outlast every deadline below.
func spawnTree(depth int) numaws.Task {
	return func(ctx numaws.Context) {
		if depth == 0 {
			ctx.Compute(10)
			return
		}
		ctx.Spawn(spawnTree(depth - 1))
		ctx.Call(spawnTree(depth - 1))
		ctx.Sync()
	}
}

// longTree runs for seconds of host time when nothing interrupts it.
const longTree = 21

// prompt is how long an interrupted run may take to return.
const prompt = time.Second

func TestRunTaskContainsPanics(t *testing.T) {
	s := small(t, numaws.WithWorkers(4))
	boom := func(ctx numaws.Context) {
		ctx.Spawn(func(numaws.Context) { panic("boom") })
		ctx.Sync()
	}
	_, err := s.RunTask(t.Context(), boom)
	var rf *numaws.RunFailure
	if !errors.As(err, &rf) || rf.Kind != "panic" || rf.Policy != "numaws" || rf.P != 4 {
		t.Errorf("RunTask with a panicking child: err = %v, want a numaws P=4 panic RunFailure", err)
	}
	_, err = s.RunTaskSerial(t.Context(), boom)
	if !errors.As(err, &rf) || rf.Kind != "panic" || rf.Policy != "" || rf.P != 1 {
		t.Errorf("RunTaskSerial with a panicking child: err = %v, want a serial panic RunFailure", err)
	}
}

func TestRunTaskHonorsRunTimeout(t *testing.T) {
	s := small(t, numaws.WithWorkers(4), numaws.WithRunTimeout(50*time.Millisecond))
	start := time.Now()
	_, err := s.RunTask(t.Context(), spawnTree(longTree))
	elapsed := time.Since(start)
	var rf *numaws.RunFailure
	if !errors.As(err, &rf) || rf.Kind != "timeout" {
		t.Errorf("RunTask past its deadline: err = %v, want a timeout RunFailure", err)
	}
	if elapsed > prompt {
		t.Errorf("RunTask took %v past a 50ms deadline, want under %v", elapsed, prompt)
	}
}

func TestRunTaskStopsOnCancel(t *testing.T) {
	s := small(t, numaws.WithWorkers(4))
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := s.RunTask(ctx, spawnTree(longTree))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunTask cancelled mid-run: err = %v, want context.Canceled", err)
	}
	if elapsed > prompt {
		t.Errorf("RunTask took %v after a cancel at 50ms, want under %v", elapsed, prompt)
	}
}
