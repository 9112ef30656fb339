package sched

import (
	"reflect"
	"testing"

	"repro/internal/deque"
)

// TestArenaReuseMatchesFreshEngines pins the arena's compatibility
// contract: a sequence of runs through one reused arena — alternating
// policies, worker counts and seeds, so both the shape-match and the
// rebuild paths are exercised — produces exactly the statistics fresh
// engines produce.
func TestArenaReuseMatchesFreshEngines(t *testing.T) {
	type shape struct {
		p    int
		pol  Policy
		seed int64
	}
	shapes := []shape{
		{32, NUMAWS, 1},
		{32, NUMAWS, 2}, // same shape, new seed: the reuse path
		{32, Cilk, 2},   // bias dropped: rebuild
		{8, NUMAWS, 1},  // smaller worker set: rebuild
		{32, NUMAWS, 1}, // back to the first shape
	}
	newRunner := func() *treeRunner {
		return &treeRunner{fanout: 3, depth: 5, leafCost: 700, innerCost: 5,
			placeOf: func(i int) int { return i % 3 }}
	}
	arena := NewArena()
	for i, s := range shapes {
		cfg := testConfig(s.p, s.pol)
		cfg.Seed = s.seed

		fresh := NewEngine(cfg, newRunner())
		want := *fresh.Run(fresh.NewRootFrame(PlaceAny))

		reused := NewEngineIn(arena, cfg, newRunner())
		got := *reused.Run(reused.NewRootFrame(PlaceAny))

		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%+v): arena-reused stats differ from fresh engine\ngot:  %+v\nwant: %+v",
				i, s, got, want)
		}
	}
}

// TestArenaFrameRecycling checks the frame pool reaches steady state: after
// a completed run every pooled frame is back on the free list, so a second
// identical run allocates no new frame blocks.
func TestArenaFrameRecycling(t *testing.T) {
	arena := NewArena()
	run := func() {
		r := &treeRunner{fanout: 4, depth: 5, leafCost: 100, innerCost: 2}
		e := NewEngineIn(arena, testConfig(16, NUMAWS), r)
		e.Run(e.NewRootFrame(PlaceAny))
	}
	run()
	blocks, free := len(arena.blocks), len(arena.free)
	if blocks == 0 {
		t.Fatal("engine-built frames did not come from the arena")
	}
	if free != 256*blocks {
		t.Errorf("after a completed run %d of %d pooled frames are free; some frame never returned",
			free, 256*blocks)
	}
	run()
	if len(arena.blocks) != blocks {
		t.Errorf("second identical run grew the arena from %d to %d blocks", blocks, len(arena.blocks))
	}
}

// TestArenaKeepsDequesAcrossShapes pins the deque pool: a P sweep that
// shrinks the worker set and regrows it (32 -> 1 -> 32, as Fig. 9's P
// sweep does between benchmarks) builds each worker's deque, and so its
// ring, once; every later shape reuses the same deques.
func TestArenaKeepsDequesAcrossShapes(t *testing.T) {
	arena := NewArena()
	run := func(p int) []*deque.Deque[*Frame] {
		r := &treeRunner{fanout: 3, depth: 4, leafCost: 300, innerCost: 5}
		e := NewEngineIn(arena, testConfig(p, NUMAWS), r)
		e.Run(e.NewRootFrame(PlaceAny))
		ds := make([]*deque.Deque[*Frame], p)
		for i, w := range arena.workers {
			ds[i] = w.deque
		}
		return ds
	}
	first := run(32)
	run(1)
	again := run(32)
	if len(arena.deques) != 32 {
		t.Errorf("arena holds %d deques after a 32->1->32 sweep, want 32", len(arena.deques))
	}
	for i := range first {
		if again[i] != first[i] {
			t.Errorf("worker %d got a new deque after the 32->1->32 sweep", i)
		}
	}
}

// fibState is fibRunner's continuation state of one frame.
type fibState struct{ n, step int }

// fibRunner is a zero-cost synthetic fib tree built only from pooled
// storage: frames from the engine's arena, states from its own free list.
// Each frame spawns n-1 and n-2, syncs and returns; a leaf just returns.
type fibRunner struct {
	e    *Engine
	free []*fibState
}

func (r *fibRunner) state(n int) *fibState {
	if k := len(r.free); k > 0 {
		s := r.free[k-1]
		r.free = r.free[:k-1]
		*s = fibState{n: n}
		return s
	}
	return &fibState{n: n}
}

func (r *fibRunner) spawn(parent *Frame, n int) Yield {
	f := r.e.NewFrame(parent, parent.Place)
	f.Data = r.state(n)
	return Yield{Kind: YieldSpawn, Child: f}
}

func (r *fibRunner) Resume(_ int, f *Frame) Yield {
	s := f.Data.(*fibState)
	if s.n >= 2 {
		s.step++
		switch s.step {
		case 1:
			return r.spawn(f, s.n-1)
		case 2:
			return r.spawn(f, s.n-2)
		case 3:
			return Yield{Kind: YieldSync}
		}
	}
	r.free = append(r.free, s)
	return Yield{Kind: YieldReturn}
}

// TestEngineSteadyStateAllocationFree pins the engine loop's steady state:
// on a warmed arena, a run allocates the same amount however many strands
// it executes. fib(20) resumes about 18x as many strands as fib(14), so a
// single allocation per strand or per event shows up as a difference.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	arena := NewArena()
	r := &fibRunner{}
	run := func(n int) func() {
		return func() {
			r.e = NewEngineIn(arena, testConfig(32, NUMAWS), r)
			root := r.e.NewRootFrame(PlaceAny)
			root.Data = r.state(n)
			r.e.Run(root)
		}
	}
	small, large := run(14), run(20)
	large() // warm the arena's frame pool and the runner's state pool
	if a, b := testing.AllocsPerRun(5, small), testing.AllocsPerRun(5, large); a != b {
		t.Errorf("fib(14) run made %v allocations, fib(20) run %v; the engine loop allocates per strand", a, b)
	}
}

// TestEngineFrameConstructorsMatchPackageOnes checks the pooled
// constructors produce frames indistinguishable from the package-level ones
// apart from pooling.
func TestEngineFrameConstructorsMatchPackageOnes(t *testing.T) {
	e := NewEngine(testConfig(2, Cilk), &treeRunner{fanout: 1, depth: 1, leafCost: 1, innerCost: 1})
	parent := e.NewRootFrame(3)
	if !parent.Root || !parent.Full() || parent.Place != 3 || !parent.pooled {
		t.Errorf("NewRootFrame: %+v", parent)
	}
	f := e.NewFrame(parent, 1)
	if f.Parent != parent || f.Place != 1 || f.Called() || f.Full() || !f.pooled {
		t.Errorf("NewFrame: %+v", f)
	}
	c := e.NewCalledFrame(parent, 2)
	if c.Parent != parent || c.Place != 2 || !c.Called() || !c.pooled {
		t.Errorf("NewCalledFrame: %+v", c)
	}
}
