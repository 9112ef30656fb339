package sched

import (
	"reflect"
	"testing"
)

// scriptState is scriptRunner's continuation state of one frame.
type scriptState struct{ depth, pc int }

// scriptRunner is a stub Runner over a ternary tree whose frames exercise
// every yield Continue handles and every one it must decline. An inner
// frame calls a subtree, syncs trivially, spawns two subtrees, syncs (a
// nontrivial sync whenever it was stolen), syncs again (trivial) and
// returns; a leaf returns. With fast set, Resume offers each yield to
// Continue and keeps running the frame Continue hands back, as the
// execution layer does on its coroutine.
type scriptRunner struct {
	e    *Engine
	fast bool
	// Continue outcomes by yield kind, counted only when fast is set.
	taken, declined [4]int
}

func (r *scriptRunner) child(parent *Frame, called bool, depth int) *Frame {
	f := r.e.NewFrame(parent, parent.Place)
	if called {
		f = r.e.NewCalledFrame(parent, parent.Place)
	}
	f.Data = &scriptState{depth: depth}
	return f
}

func (r *scriptRunner) step(f *Frame) Yield {
	s := f.Data.(*scriptState)
	if s.depth == 0 {
		return Yield{Kind: YieldReturn, Cost: 7}
	}
	s.pc++
	switch s.pc {
	case 1:
		return Yield{Kind: YieldCall, Cost: 3, Child: r.child(f, true, s.depth-1)}
	case 2:
		return Yield{Kind: YieldSync, Cost: 2}
	case 3:
		return Yield{Kind: YieldSpawn, Cost: 4, Child: r.child(f, false, s.depth-1)}
	case 4:
		return Yield{Kind: YieldSpawn, Cost: 1, Child: r.child(f, false, s.depth-1)}
	case 5:
		return Yield{Kind: YieldSync, Cost: 2}
	case 6:
		return Yield{Kind: YieldSync, Cost: 1}
	}
	return Yield{Kind: YieldReturn, Cost: 5}
}

func (r *scriptRunner) Resume(w int, f *Frame) Yield {
	for {
		y := r.step(f)
		if !r.fast {
			return y
		}
		next := r.e.Continue(w, y)
		if next == nil {
			r.declined[y.Kind]++
			return y
		}
		r.taken[y.Kind]++
		f = next
	}
}

// spanLog is a Tracer keeping every span in order.
type spanLog []loggedSpan

type loggedSpan struct {
	w          int
	start, end int64
	kind       TraceKind
}

func (l *spanLog) Span(w int, start, end int64, kind TraceKind) {
	*l = append(*l, loggedSpan{w, start, end, kind})
}

// TestContinueMatchesEngineLoop runs the scripted tree under every
// registered policy with and without the fast path, the interrupt poll
// armed and adaptation epochs live (the tree makes several epochs' worth of
// events), and requires identical Stats, tracer spans and interrupt polls:
// Continue processes exactly the events Run would have.
func TestContinueMatchesEngineLoop(t *testing.T) {
	for _, name := range Names() {
		pol, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			run := func(fast bool) (*Stats, spanLog, int, *scriptRunner) {
				var spans spanLog
				polls := 0
				cfg := testConfig(8, pol)
				cfg.Tracer = &spans
				cfg.Interrupt = func() bool { polls++; return false }
				r := &scriptRunner{fast: fast}
				r.e = NewEngine(cfg, r)
				root := r.e.NewRootFrame(PlaceAny)
				root.Data = &scriptState{depth: 9}
				st := r.e.Run(root)
				return st, spans, polls, r
			}
			slowStats, slowSpans, slowPolls, _ := run(false)
			fastStats, fastSpans, fastPolls, r := run(true)
			if slowStats.Events < 3*adaptiveBiasEpoch {
				t.Fatalf("the tree makes only %d events", slowStats.Events)
			}
			if !reflect.DeepEqual(slowStats, fastStats) {
				t.Errorf("stats differ:\nengine loop %+v\nfast path   %+v", slowStats, fastStats)
			}
			if !reflect.DeepEqual(slowSpans, fastSpans) {
				t.Errorf("tracer spans differ: %d through the engine loop, %d with the fast path", len(slowSpans), len(fastSpans))
			}
			if slowPolls != fastPolls {
				t.Errorf("interrupt polled %d times through the engine loop, %d with the fast path", slowPolls, fastPolls)
			}
			for _, k := range []YieldKind{YieldCall, YieldSync, YieldReturn} {
				if r.taken[k] == 0 {
					t.Errorf("Continue never took a %v", k)
				}
			}
			if r.taken[YieldSpawn] != 0 {
				t.Errorf("Continue took %d spawns", r.taken[YieldSpawn])
			}
			if r.declined[YieldSpawn] == 0 || r.declined[YieldReturn] == 0 {
				t.Errorf("Continue declined no spawn or no return: %v", r.declined)
			}
		})
	}
}

// continueCase is one engine state handed to Continue: worker 1 runs frame
// run at virtual time 100 after event 10, and queue holds the other
// workers' wakeups.
type continueCase struct {
	name   string
	policy string
	y      func(run *Frame) Yield
	setup  func(e *Engine, run *Frame)
	queue  [][2]int64 // (time, worker) pairs
	// want is the frame Continue should move worker 1 to; nil expects a
	// decline.
	want func(run *Frame, y Yield) *Frame
}

func TestContinueDeclines(t *testing.T) {
	root := NewRootFrame(PlaceAny)
	call := func(run *Frame) Yield { return Yield{Kind: YieldCall, Cost: 10, Child: NewCalledFrame(run, PlaceAny)} }
	sync := func(*Frame) Yield { return Yield{Kind: YieldSync, Cost: 10} }
	ret := func(*Frame) Yield { return Yield{Kind: YieldReturn, Cost: 10} }
	asCalled := func(_ *Engine, run *Frame) { run.called = true }
	later := [][2]int64{{200, 0}, {200, 2}}
	for _, tc := range []continueCase{
		{name: "call", y: call, queue: later, want: func(_ *Frame, y Yield) *Frame { return y.Child }},
		{name: "trivial sync", y: sync, queue: later, want: func(run *Frame, _ Yield) *Frame { return run }},
		{name: "called return", y: ret, setup: asCalled, queue: later, want: func(run *Frame, _ Yield) *Frame { return run.Parent }},
		{name: "same-time tie, higher id", y: call, queue: [][2]int64{{110, 2}}, want: func(_ *Frame, y Yield) *Frame { return y.Child }},

		{name: "earlier worker", y: call, queue: [][2]int64{{109, 2}}},
		{name: "same-time tie, lower id", y: call, queue: [][2]int64{{110, 0}}},
		{name: "return cost crosses a worker", y: ret, setup: asCalled, queue: [][2]int64{{112, 2}}},
		{name: "interrupt poll next", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.stats.Events = interruptPollInterval - 1 }},
		{name: "interrupt poll after", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.stats.Events = interruptPollInterval - 2 }},
		{name: "adaptation epoch next", policy: "adaptive-bias", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.adaptNext = 11 }},
		{name: "adaptation epoch after", policy: "adaptive-bias", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.adaptNext = 12 }},
		{name: "MaxEvents next", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.maxEvents = 10 }},
		{name: "MaxEvents after", y: call, queue: later, setup: func(e *Engine, _ *Frame) { e.maxEvents = 11 }},
		{name: "spawn", y: func(run *Frame) Yield { return Yield{Kind: YieldSpawn, Cost: 10, Child: NewFrame(run, PlaceAny)} }, queue: later},
		{name: "sync of a stolen frame", y: sync, queue: later, setup: func(_ *Engine, run *Frame) { run.stolen = true }},
		{name: "sync with children out", y: sync, queue: later, setup: func(_ *Engine, run *Frame) { run.children = 1 }},
		{name: "spawned return", y: ret, queue: later},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := Cilk
			if tc.policy != "" {
				var err error
				if pol, err = Lookup(tc.policy); err != nil {
					t.Fatal(err)
				}
			}
			e := NewEngine(testConfig(4, pol), nil)
			if tc.policy != "" && e.adaptive == nil {
				t.Fatalf("policy %s armed no adaptation epochs", tc.policy)
			}
			run := NewFrame(root, PlaceAny)
			w := e.workers[1]
			w.run, w.clock = run, 100
			e.stats.Events = 10
			if tc.setup != nil {
				tc.setup(e, run)
			}
			for _, q := range tc.queue {
				e.q.Push(q[0], int(q[1]))
			}
			y := tc.y(run)
			stats, ws, clock := e.stats, w.stats, w.clock
			got := e.Continue(1, y)
			if tc.want == nil {
				if got != nil {
					t.Fatalf("Continue took the %v", y.Kind)
				}
				if !reflect.DeepEqual(e.stats, stats) || w.stats != ws || w.clock != clock || w.run != run || w.hasPending {
					t.Fatal("a declining Continue changed engine state")
				}
				return
			}
			if want := tc.want(run, y); got != want || w.run != want {
				t.Fatalf("Continue moved the worker to %v (run %v), want %v", got, w.run, want)
			}
			if e.stats.Events != stats.Events+2 {
				t.Errorf("Events %d, want %d", e.stats.Events, stats.Events+2)
			}
			end := clock + y.Cost
			if y.Kind == YieldReturn {
				end += returnCost
			}
			if w.clock != end || w.stats.Work != end-clock {
				t.Errorf("clock %d work %d, want %d and %d", w.clock, w.stats.Work, end, end-clock)
			}
		})
	}
}
