package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/topology"
)

// fib builds the classic spawn-heavy microbenchmark: each call charges one
// unit of compute per node so work is countable.
func fib(n int) Task { return fibBoom(n, new(int)) }

// fibBoom is fib(n) panicking "boom" at its *leaf-th leaf, if *leaf > 0.
func fibBoom(n int, leaf *int) Task {
	return func(ctx Context) {
		ctx.Compute(1)
		if n < 2 {
			if *leaf--; *leaf == 0 {
				panic("boom")
			}
			return
		}
		ctx.Spawn(fibBoom(n-1, leaf))
		ctx.Call(fibBoom(n-2, leaf)) // second "call" runs in the same frame
		ctx.Sync()
	}
}

// fibNodes counts the call-tree nodes of fib(n), including Call frames.
func fibNodes(n int) int64 {
	if n < 2 {
		return 1
	}
	return 1 + fibNodes(n-1) + fibNodes(n-2)
}

func newRT(p int, pol sched.Policy, seed int64) *Runtime {
	cfg := DefaultConfig(p, pol)
	cfg.Sched.Seed = seed
	return NewRuntime(cfg)
}

func TestSerialElisionCountsWork(t *testing.T) {
	rt := newRT(1, sched.Cilk, 1)
	rep := rt.RunSerial(fib(12))
	if rep.Time != fibNodes(12) {
		t.Errorf("TS = %d, want exactly %d compute units", rep.Time, fibNodes(12))
	}
	if rep.Sched != nil {
		t.Error("serial report has scheduler stats")
	}
}

func TestT1IncludesOnlySpawnOverhead(t *testing.T) {
	ts := newRT(1, sched.Cilk, 1).RunSerial(fib(12)).Time
	rep := newRT(1, sched.Cilk, 1).Run(fib(12))
	if rep.Time <= ts {
		t.Errorf("T1 = %d, want > TS = %d (spawn overhead exists)", rep.Time, ts)
	}
	// Work efficiency: T1/TS stays small even for spawn-heavy fib with no
	// coarsening; with the default 8-cycle spawn cost and 1-cycle strands
	// the ratio is large by construction, so check against the analytic
	// overhead instead: T1 = TS + spawns*(SpawnCost+ReturnCost-ish).
	if rep.Sched.Steals != 0 {
		t.Errorf("P=1 run stole %d times", rep.Sched.Steals)
	}
	if rep.Sched.IdleTotal() != 0 {
		t.Errorf("P=1 run idled %d cycles", rep.Sched.IdleTotal())
	}
}

func TestParallelSpeedup(t *testing.T) {
	// Binary spawning (as cilk_for compiles to): the deques hold many
	// stealable continuations, unlike a flat spawn loop.
	mk := func() Task {
		return func(ctx Context) {
			SpawnRange(ctx, 0, 256, 1, func(c Context, lo, hi int) {
				c.Compute(int64(hi-lo) * 5000)
			})
		}
	}
	t1 := newRT(1, sched.Cilk, 1).Run(mk()).Time
	t8 := newRT(8, sched.Cilk, 1).Run(mk()).Time
	t32 := newRT(32, sched.Cilk, 1).Run(mk()).Time
	if t8 >= t1 || t32 >= t8 {
		t.Errorf("no scaling: T1=%d T8=%d T32=%d", t1, t8, t32)
	}
	if sp := float64(t1) / float64(t32); sp < 8 {
		t.Errorf("T1/T32 = %.2f, want >= 8 for 256 independent leaves", sp)
	}
}

func TestNestedSyncSemantics(t *testing.T) {
	// A frame that spawns, syncs, mutates, spawns again, syncs again: the
	// order of side effects must respect sync barriers.
	var log []int
	root := func(ctx Context) {
		ctx.Spawn(func(c Context) { c.Compute(100); log = append(log, 1) })
		ctx.Spawn(func(c Context) { c.Compute(50); log = append(log, 1) })
		ctx.Sync()
		log = append(log, 2)
		ctx.Spawn(func(c Context) { c.Compute(10); log = append(log, 3) })
		ctx.Sync()
		log = append(log, 4)
	}
	newRT(8, sched.NUMAWS, 3).Run(root)
	want := []int{1, 1, 2, 3, 4}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestImplicitSyncAtReturn(t *testing.T) {
	// A task that spawns without syncing must still complete its children
	// before its parent's sync admits it.
	done := false
	root := func(ctx Context) {
		ctx.Spawn(func(c Context) {
			c.Spawn(func(cc Context) { cc.Compute(1000); done = true })
			// no explicit sync: the implicit one at return must cover it
		})
		ctx.Sync()
		if !done {
			t.Error("parent sync passed before grandchild finished")
		}
	}
	newRT(4, sched.Cilk, 2).Run(root)
}

func TestPlaceInheritanceAndOverride(t *testing.T) {
	places := map[string]int{}
	root := func(ctx Context) {
		ctx.SpawnAt(2, func(c Context) {
			places["child"] = c.Place()
			c.Spawn(func(cc Context) { places["grandchild"] = cc.Place() })
			c.SpawnAt(PlaceAny, func(cc Context) { places["unset"] = cc.Place() })
			c.SpawnAt(1, func(cc Context) { places["override"] = cc.Place() })
			c.Sync()
		})
		ctx.Sync()
	}
	newRT(32, sched.NUMAWS, 5).Run(root)
	if places["child"] != 2 {
		t.Errorf("child place = %d, want 2", places["child"])
	}
	if places["grandchild"] != 2 {
		t.Errorf("grandchild place = %d, want 2 (inheritance)", places["grandchild"])
	}
	if places["unset"] != PlaceAny {
		t.Errorf("unset place = %d, want PlaceAny", places["unset"])
	}
	if places["override"] != 1 {
		t.Errorf("override place = %d, want 1", places["override"])
	}
}

func TestSetPlace(t *testing.T) {
	got := -99
	root := func(ctx Context) {
		ctx.Spawn(func(c Context) {
			c.SetPlace(3)
			c.Spawn(func(cc Context) { got = cc.Place() })
			c.Sync()
		})
		ctx.Sync()
	}
	newRT(32, sched.NUMAWS, 5).Run(root)
	if got != 3 {
		t.Errorf("grandchild place after SetPlace(3) = %d, want 3", got)
	}
}

func TestPlaceValidation(t *testing.T) {
	if recovered(func() { newRT(4, sched.NUMAWS, 1).Run(func(ctx Context) { ctx.SpawnAt(99, func(Context) {}) }) }) == nil {
		t.Error("SpawnAt with out-of-range place did not panic")
	}
}

func TestNumPlacesFollowsPacking(t *testing.T) {
	for _, tc := range []struct{ p, places int }{
		{1, 1}, {8, 1}, {9, 2}, {16, 2}, {24, 3}, {32, 4},
	} {
		var got int
		newRT(tc.p, sched.NUMAWS, 1).Run(func(ctx Context) { got = ctx.NumPlaces() })
		if got != tc.places {
			t.Errorf("P=%d: NumPlaces() = %d, want %d", tc.p, got, tc.places)
		}
	}
}

func TestMemoryChargesAffectTime(t *testing.T) {
	run := func(pol memory.Policy, p int) int64 {
		rt := newRT(p, sched.Cilk, 1)
		arr := rt.Alloc("data", 1<<20, pol)
		return rt.Run(func(ctx Context) {
			SpawnRange(ctx, 0, 16, 1, func(c Context, lo, hi int) {
				for i := lo; i < hi; i++ {
					c.Read(arr, int64(i)*(1<<16), 1<<16)
				}
			})
		}).Time
	}
	local := run(memory.BindTo{Socket: 0}, 1)
	// On one worker everything is socket 0, so binding to socket 3 makes
	// every access two hops more expensive.
	remote := run(memory.BindTo{Socket: 3}, 1)
	if remote <= local {
		t.Errorf("remote-bound run %d not slower than local-bound %d", remote, local)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Task {
		return func(ctx Context) {
			for i := 0; i < 32; i++ {
				p := i % 4
				ctx.SpawnAt(p, func(c Context) { c.Compute(3000) })
			}
			ctx.Sync()
		}
	}
	a := newRT(32, sched.NUMAWS, 9).Run(mk())
	b := newRT(32, sched.NUMAWS, 9).Run(mk())
	if a.Time != b.Time || a.Sched.Steals != b.Sched.Steals {
		t.Errorf("same seed diverged: T=%d/%d steals=%d/%d", a.Time, b.Time, a.Sched.Steals, b.Sched.Steals)
	}
}

// recovered runs f and returns what it panicked with.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

func TestTaskPanicPropagates(t *testing.T) {
	arena := NewArena()
	run := func(a *Arena, root Task) *Report {
		cfg := DefaultConfig(4, sched.Cilk)
		cfg.Arena = a
		return NewRuntime(cfg).Run(root)
	}
	// A child panicking at once, and a grandchild after many suspensions.
	for _, c := range []struct{ n, leaf int }{{2, 1}, {10, 40}} {
		p := recovered(func() { run(arena, fibBoom(c.n, &c.leaf)) })
		if s, _ := p.(string); !strings.Contains(s, "core: task panicked: boom") {
			t.Errorf("fib(%d) panicking at a leaf: Run panicked with %v", c.n, p)
		}
	}
	// The arena a panicked run leaves behind stays fit for reuse.
	if got, want := run(arena, fib(12)), run(NewArena(), fib(12)); !reflect.DeepEqual(got, want) {
		t.Errorf("run on a reused arena after a panic = %+v, want %+v", got, want)
	}
}

// TestAbortedRunsLeakNoStrands pins closeUnits: runs stopped with strands
// suspended — interrupted mid-run, or panicking deep in the tree — leave
// none of their coroutines behind.
func TestAbortedRunsLeakNoStrands(t *testing.T) {
	before := runtime.NumGoroutine()
	interrupted := DefaultConfig(8, sched.NUMAWS)
	interrupted.Sched.Interrupt = func() bool { return true } // first poll is mid-run
	for range 3 {
		if p := recovered(func() { NewRuntime(interrupted).Run(fib(18)) }); p != sched.ErrInterrupted {
			t.Fatalf("interrupted run panicked with %v", p)
		}
		leaf := 500
		if recovered(func() { newRT(8, sched.Cilk, 1).Run(fibBoom(18, &leaf)) }) == nil {
			t.Fatal("panicking run returned")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("aborted runs leaked strands: %d goroutines before, %d after", before, after)
	}
}

func TestRuntimeSingleUse(t *testing.T) {
	rt := newRT(2, sched.Cilk, 1)
	rt.Run(func(Context) {})
	if recovered(func() { rt.Run(func(Context) {}) }) == nil {
		t.Error("second Run on the same Runtime did not panic")
	}
}

func TestSpawnRangeCoversAllIndices(t *testing.T) {
	covered := make([]bool, 100)
	newRT(8, sched.Cilk, 1).Run(func(ctx Context) {
		SpawnRange(ctx, 0, 100, 7, func(c Context, lo, hi int) {
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("index %d visited twice", i)
				}
				covered[i] = true
			}
		})
	})
	for i, ok := range covered {
		if !ok {
			t.Errorf("index %d never visited", i)
		}
	}
}

// Property: SpawnRange visits each index exactly once for arbitrary ranges
// and grains, on the serial executor.
func TestSpawnRangeProperty(t *testing.T) {
	f := func(rawN, rawGrain uint8) bool {
		n := int(rawN)%200 + 1
		grain := int(rawGrain) % 32 // 0 becomes 1 inside
		counts := make([]int, n)
		rt := newRT(1, sched.Cilk, 1)
		rt.RunSerial(func(ctx Context) {
			SpawnRange(ctx, 0, n, grain, func(c Context, lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i]++
				}
			})
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkFirstInvariant(t *testing.T) {
	// The core claim: work time must not inflate with P beyond memory
	// effects. With pure Compute (no memory), WorkTotal at P=32 must equal
	// WorkTotal at P=1 exactly.
	mk := func() Task {
		var rec func(depth int) Task
		rec = func(depth int) Task {
			return func(ctx Context) {
				if depth == 0 {
					ctx.Compute(2000)
					return
				}
				ctx.Spawn(rec(depth - 1))
				ctx.Spawn(rec(depth - 1))
				ctx.Sync()
				ctx.Compute(10)
			}
		}
		return rec(7)
	}
	w1 := newRT(1, sched.NUMAWS, 1).Run(mk()).Sched.WorkTotal()
	w32 := newRT(32, sched.NUMAWS, 1).Run(mk()).Sched.WorkTotal()
	if w1 != w32 {
		t.Errorf("pure-compute work inflated: W1=%d W32=%d", w1, w32)
	}
}

func TestBrentBoundOnRealRuns(t *testing.T) {
	// T_P must satisfy T1/P <= T_P <= T1/P + c*T_inf for all P, both
	// policies (the paper's Section IV bound with our bookkeeping costs
	// folded into the constant).
	mk := func() Task {
		var rec func(depth int) Task
		rec = func(depth int) Task {
			return func(ctx Context) {
				if depth == 0 {
					ctx.Compute(4000)
					return
				}
				ctx.Spawn(rec(depth - 1))
				ctx.Spawn(rec(depth - 1))
				ctx.Sync()
			}
		}
		return rec(8)
	}
	for _, pol := range []sched.Policy{sched.Cilk, sched.NUMAWS} {
		t1 := newRT(1, pol, 1).Run(mk()).Time
		// span: 8 levels of (spawn+sync bookkeeping) + leaf = roughly
		// 8*small + 4000; be generous.
		span := int64(8*1000 + 4000)
		for _, p := range []int{2, 4, 8, 16, 32} {
			tp := newRT(p, pol, 1).Run(mk()).Time
			if tp < t1/int64(p) {
				t.Errorf("%v P=%d: T_P=%d < T1/P=%d", pol, p, tp, t1/int64(p))
			}
			if tp > t1/int64(p)+60*span {
				t.Errorf("%v P=%d: T_P=%d exceeds T1/P + O(Tinf)=%d", pol, p, tp, t1/int64(p)+60*span)
			}
		}
	}
}

func TestTopologyAccessors(t *testing.T) {
	rt := newRT(4, sched.Cilk, 1)
	if rt.Topology().Sockets() != 4 {
		t.Error("Topology() lost the machine")
	}
	if rt.Allocator().Sockets() != 4 {
		t.Error("Allocator() sockets mismatch")
	}
}

func TestConfigRequiresTopology(t *testing.T) {
	if recovered(func() { NewRuntime(Config{Sched: sched.Config{Workers: 2}}) }) == nil {
		t.Error("NewRuntime without topology did not panic")
	}
}

func TestWorkerReportedDuringRun(t *testing.T) {
	seen := map[int]bool{}
	newRT(8, sched.Cilk, 1).Run(func(ctx Context) {
		for i := 0; i < 64; i++ {
			ctx.Spawn(func(c Context) {
				c.Compute(2000)
				seen[c.Worker()] = true
			})
		}
		ctx.Sync()
	})
	if len(seen) < 2 {
		t.Errorf("only %d workers ever executed tasks; expected parallelism", len(seen))
	}
}

func TestSingleSocketTopologyWorks(t *testing.T) {
	cfg := Config{Sched: sched.Config{
		Topology: topology.SingleSocket(4),
		Workers:  4,
		Policy:   sched.NUMAWS,
		Seed:     1,
	}}
	rep := NewRuntime(cfg).Run(func(ctx Context) {
		for i := 0; i < 16; i++ {
			ctx.Spawn(func(c Context) { c.Compute(1000) })
		}
		ctx.Sync()
	})
	if rep.Time <= 0 {
		t.Error("single-socket run did not complete")
	}
}
