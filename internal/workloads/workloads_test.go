package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// factories builds small instances of every benchmark, sized for test speed.
func factories(aware bool) map[string]func() Workload {
	cfg := Config{Aware: aware, Seed: 42}
	return map[string]func() Workload{
		"cilksort": func() Workload { return NewCilksort(1<<14, 512, cfg) },
		"heat":     func() Workload { return NewHeat(64, 64, 6, 8, cfg) },
		"cg":       func() Workload { return NewCG(512, 12, 5, 8, cfg) },
		"hull1":    func() Workload { return NewHull(4000, 256, 8, InDisk, cfg) },
		"hull2":    func() Workload { return NewHull(1500, 256, 8, OnCircle, cfg) },
		"matmul":   func() Workload { return NewMatmul(64, 16, false, cfg) },
		"matmul-z": func() Workload { return NewMatmul(64, 16, true, cfg) },
		"strassen": func() Workload { return NewStrassen(64, 16, false, cfg) },
		"strassen-z": func() Workload {
			return NewStrassen(64, 16, true, cfg)
		},
		"fib":     func() Workload { return NewFib(20, 8, cfg) },
		"nqueens": func() Workload { return NewNQueens(8, 2, cfg) },
		"fft":     func() Workload { return NewFFT(1<<10, 8, cfg) },
		"lu":      func() Workload { return NewLU(64, 16, cfg) },
		"rectmul": func() Workload { return NewRectmul(48, 32, 64, 16, cfg) },
	}
}

func newWorkloadRT(p int, pol sched.Policy) *core.Runtime {
	cfg := core.DefaultConfig(p, pol)
	cfg.Sched.Seed = 7
	return core.NewRuntime(cfg)
}

func TestSerialElisionCorrectness(t *testing.T) {
	for name, mk := range factories(false) {
		t.Run(name, func(t *testing.T) {
			w := mk()
			rt := newWorkloadRT(1, sched.Cilk)
			w.Prepare(rt)
			rep := rt.RunSerial(w.Root())
			if rep.Time <= 0 {
				t.Error("TS not positive")
			}
			if err := w.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestParallelCorrectnessCilk(t *testing.T) {
	for name, mk := range factories(false) {
		t.Run(name, func(t *testing.T) {
			w := mk()
			rt := newWorkloadRT(16, sched.Cilk)
			w.Prepare(rt)
			rep := rt.Run(w.Root())
			if rep.Time <= 0 {
				t.Error("T16 not positive")
			}
			if err := w.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestParallelCorrectnessNUMAWSAware(t *testing.T) {
	for name, mk := range factories(true) {
		t.Run(name, func(t *testing.T) {
			w := mk()
			rt := newWorkloadRT(32, sched.NUMAWS)
			w.Prepare(rt)
			rep := rt.Run(w.Root())
			if rep.Time <= 0 {
				t.Error("T32 not positive")
			}
			if err := w.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestAwareRunsReduceRemoteAccesses(t *testing.T) {
	// The point of the exercise: on heat (banded stencil), the NUMA-aware
	// configuration must service far fewer accesses remotely than the
	// baseline with first-touch-on-socket-0 placement.
	run := func(aware bool) (remote, total int64) {
		cfg := Config{Aware: aware, Seed: 42}
		w := NewHeat(128, 128, 4, 16, cfg)
		rt := newWorkloadRT(32, sched.NUMAWS)
		w.Prepare(rt)
		rep := rt.Run(w.Root())
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		return rep.Cache.Remote(), rep.Cache.Total()
	}
	remoteAware, _ := run(true)
	remoteBase, _ := run(false)
	if remoteAware >= remoteBase {
		t.Errorf("aware run has %d remote accesses, baseline %d; binding+hints should reduce them",
			remoteAware, remoteBase)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() int64 {
		w := NewCilksort(1<<13, 256, Config{Aware: true, Seed: 3})
		rt := newWorkloadRT(16, sched.NUMAWS)
		w.Prepare(rt)
		return rt.Run(w.Root()).Time
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs diverged: %d vs %d", a, b)
	}
}

func TestHullInputShapes(t *testing.T) {
	// hull2 (on circle) must put every point on the hull; hull1 only a few.
	w2 := NewHull(400, 64, 4, OnCircle, Config{Seed: 1})
	rt := newWorkloadRT(1, sched.Cilk)
	w2.Prepare(rt)
	rt.RunSerial(w2.Root())
	if err := w2.Verify(); err != nil {
		t.Fatal(err)
	}
	marks := 0
	for _, m := range w2.hullMark {
		if m {
			marks++
		}
	}
	if marks != 400 {
		t.Errorf("on-circle input marked %d hull points, want all 400", marks)
	}

	w1 := NewHull(4000, 64, 4, InDisk, Config{Seed: 1})
	rt = newWorkloadRT(1, sched.Cilk)
	w1.Prepare(rt)
	rt.RunSerial(w1.Root())
	if err := w1.Verify(); err != nil {
		t.Fatal(err)
	}
	marks = 0
	for _, m := range w1.hullMark {
		if m {
			marks++
		}
	}
	if marks >= 400 {
		t.Errorf("in-disk input marked %d hull points, expected far fewer than n", marks)
	}
}

func TestHull2HeavierThanHull1(t *testing.T) {
	// "There is a lot more computation in hull2" for the same n.
	ts := func(input Input) int64 {
		w := NewHull(3000, 256, 8, input, Config{Seed: 5})
		rt := newWorkloadRT(1, sched.Cilk)
		w.Prepare(rt)
		return rt.RunSerial(w.Root()).Time
	}
	t1, t2 := ts(InDisk), ts(OnCircle)
	if t2 <= t1 {
		t.Errorf("hull2 TS %d not heavier than hull1 TS %d", t2, t1)
	}
}

func TestZLayoutSpeedsUpSerialMatmul(t *testing.T) {
	// The paper's Fig. 7: matmul-z TS is much lower than matmul TS (73.6s
	// vs 190.9s) because contiguous tiles stream. Check the direction.
	ts := func(z bool) int64 {
		w := NewMatmul(128, 32, z, Config{Seed: 2})
		rt := newWorkloadRT(1, sched.Cilk)
		w.Prepare(rt)
		rep := rt.RunSerial(w.Root())
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		return rep.Time
	}
	plain, z := ts(false), ts(true)
	if z >= plain {
		t.Errorf("matmul-z TS %d not faster than matmul TS %d", z, plain)
	}
}

func TestZLayoutSpeedsUpSerialStrassen(t *testing.T) {
	ts := func(z bool) int64 {
		w := NewStrassen(128, 32, z, Config{Seed: 2})
		rt := newWorkloadRT(1, sched.Cilk)
		w.Prepare(rt)
		rep := rt.RunSerial(w.Root())
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		return rep.Time
	}
	plain, z := ts(false), ts(true)
	if z >= plain {
		t.Errorf("strassen-z TS %d not faster than strassen TS %d", z, plain)
	}
}

func TestWorkloadNames(t *testing.T) {
	want := map[string]bool{
		"cilksort": true, "heat": true, "cg": true, "hull1": true,
		"hull2": true, "matmul": true, "matmul-z": true,
		"strassen": true, "strassen-z": true,
		"fib": true, "nqueens": true, "fft": true, "lu": true, "rectmul": true,
	}
	for key, mk := range factories(false) {
		if !want[mk().Name()] {
			t.Errorf("factory %q produced unexpected name %q", key, mk().Name())
		}
		if mk().Name() != key {
			t.Errorf("factory key %q != workload name %q", key, mk().Name())
		}
	}
}

func TestCGResidualDecreases(t *testing.T) {
	w := NewCG(256, 10, 8, 4, Config{Seed: 9})
	rt := newWorkloadRT(8, sched.Cilk)
	w.Prepare(rt)
	rt.Run(w.Root())
	if err := w.Verify(); err != nil { // Verify includes the residual check
		t.Error(err)
	}
}

func TestPlaceOfMapping(t *testing.T) {
	if placeOf(0, 4, 1) != core.PlaceAny {
		t.Error("single place should yield PlaceAny")
	}
	for _, tc := range []struct{ band, bands, places, want int }{
		{0, 4, 4, 0}, {1, 4, 4, 1}, {3, 4, 4, 3},
		{0, 8, 4, 0}, {7, 8, 4, 3},
		{0, 4, 2, 0}, {3, 4, 2, 1},
	} {
		if got := placeOf(tc.band, tc.bands, tc.places); got != tc.want {
			t.Errorf("placeOf(%d,%d,%d) = %d, want %d", tc.band, tc.bands, tc.places, got, tc.want)
		}
	}
}
