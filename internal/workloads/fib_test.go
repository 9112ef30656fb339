package workloads

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestFibReusableAfterInterruptedRun pins the node free list's contract: a
// Fib instance whose parallel run is aborted mid-tree (the engine's
// interrupt poll, as a harness deadline or cancellation arms it) still
// computes, and verifies, exactly what a fresh instance does on its next
// parallel run and under the serial elision. The aborted run's strands
// still hold nodes when they are unwound; those nodes never reach the free
// list, and nothing else on it is live.
func TestFibReusableAfterInterruptedRun(t *testing.T) {
	sp, err := Lookup("fib")
	if err != nil {
		t.Fatal(err)
	}
	spec := sp(ScaleSmall)
	parallel := func(w Workload, interrupt func() bool) (rep *core.Report, aborted bool) {
		cfg := core.DefaultConfig(32, sched.NUMAWS)
		cfg.Sched.Interrupt = interrupt
		rt := core.NewRuntime(cfg)
		w.Prepare(rt)
		defer func() {
			if p := recover(); p != nil {
				if err, ok := p.(error); !ok || !errors.Is(err, sched.ErrInterrupted) {
					panic(p)
				}
				aborted = true
			}
		}()
		return rt.Run(w.Root()), false
	}
	serial := func(w Workload) *core.Report {
		rt := core.NewRuntime(core.DefaultConfig(1, sched.Cilk))
		w.Prepare(rt)
		return rt.RunSerial(w.Root())
	}

	fresh := spec.Make(false)
	want, _ := parallel(fresh, nil)
	wantTS := serial(spec.Make(false))

	w := spec.Make(false)
	for _, polls := range []int{3, 7} {
		n := 0
		if _, aborted := parallel(w, func() bool { n++; return n == polls }); !aborted {
			t.Fatalf("the run finished before its %dth interrupt poll", polls)
		}
		if w.(*Fib).result != 0 {
			t.Fatal("an interrupted run stored a result")
		}
	}
	got, aborted := parallel(w, nil)
	if aborted {
		t.Fatal("an uninterrupted run aborted")
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("parallel run after interrupted runs: %v", err)
	}
	if got.Time != want.Time || got.Sched.Events != want.Sched.Events {
		t.Errorf("reused instance measured TP %d in %d events, a fresh one %d in %d",
			got.Time, got.Sched.Events, want.Time, want.Sched.Events)
	}
	w.(*Fib).result = 0
	if ts := serial(w); ts.Time != wantTS.Time {
		t.Errorf("reused instance measured TS %d, a fresh one %d", ts.Time, wantTS.Time)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("serial run after interrupted runs: %v", err)
	}
}
