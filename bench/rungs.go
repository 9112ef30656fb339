package main

// The engine-only and handoff rungs. The same fib-shaped computation runs
// twice per policy: as a bench-defined sched.Runner driven directly by the
// engine (no task goroutines, no cache model), and as a core.Task through
// core.Runtime.Run, where every strand is handed between the engine and a
// task goroutine. The two must simulate the same schedule — equal events
// and makespan — so their wall-time difference per resume is exactly the
// handoff's cost.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Strand costs of the synthetic tree, in cycles.
const (
	fibLeafCycles = 40
	fibNodeCycles = 12
)

// rungs are the measured per-event and per-resume rates.
type rungs struct {
	nsPerEvent  float64 // engine-only wall time per simulated event
	nsPerResume float64 // core minus engine-only wall time per strand resume
}

// fibTask is the tree as a core.Task.
func fibTask(n int) core.Task {
	return func(c core.Context) {
		if n < 2 {
			c.Compute(fibLeafCycles)
			return
		}
		c.Compute(fibNodeCycles)
		c.Spawn(fibTask(n - 1))
		c.Spawn(fibTask(n - 2))
		c.Sync()
	}
}

// fibFrame is the engine-only rung's continuation state of one frame.
type fibFrame struct{ n, step int }

// fibRunner replays fibTask's yields without goroutines: spawn n-1 (after
// the node's compute), spawn n-2, sync, return; a leaf returns after its
// compute.
type fibRunner struct {
	e       *sched.Engine
	resumes int64
	free    []*fibFrame
}

func (r *fibRunner) frame(n int) *fibFrame {
	if k := len(r.free); k > 0 {
		f := r.free[k-1]
		r.free = r.free[:k-1]
		*f = fibFrame{n: n}
		return f
	}
	return &fibFrame{n: n}
}

func (r *fibRunner) child(parent *sched.Frame, n int) *sched.Frame {
	f := r.e.NewFrame(parent, parent.Place)
	f.Data = r.frame(n)
	return f
}

// Resume implements sched.Runner.
func (r *fibRunner) Resume(_ int, f *sched.Frame) sched.Yield {
	r.resumes++
	s := f.Data.(*fibFrame)
	if s.n < 2 {
		r.free = append(r.free, s)
		return sched.Yield{Kind: sched.YieldReturn, Cost: fibLeafCycles}
	}
	s.step++
	switch s.step {
	case 1:
		return sched.Yield{Kind: sched.YieldSpawn, Cost: fibNodeCycles, Child: r.child(f, s.n-1)}
	case 2:
		return sched.Yield{Kind: sched.YieldSpawn, Child: r.child(f, s.n-2)}
	case 3:
		return sched.Yield{Kind: sched.YieldSync}
	}
	r.free = append(r.free, s)
	return sched.Yield{Kind: sched.YieldReturn}
}

// rungRun is one run of either rung.
type rungRun struct {
	wall     time.Duration
	events   int64
	makespan int64
	resumes  int64
}

// engineOnly runs the tree on the engine alone, reusing arena across runs.
func engineOnly(arena *sched.Arena, cfg sched.Config, n int) rungRun {
	r := &fibRunner{}
	r.e = sched.NewEngineIn(arena, cfg, r)
	root := r.e.NewRootFrame(sched.PlaceAny)
	root.Data = r.frame(n)
	t0 := time.Now()
	st := r.e.Run(root)
	return rungRun{wall: time.Since(t0), events: st.Events, makespan: st.Makespan, resumes: r.resumes}
}

// throughCore runs the tree as a task through core.Runtime.Run.
func throughCore(arena *core.Arena, cfg sched.Config, n int) rungRun {
	rt := core.NewRuntime(core.Config{Sched: cfg, Arena: arena})
	t0 := time.Now()
	rep := rt.Run(fibTask(n))
	return rungRun{wall: time.Since(t0), events: rep.Sched.Events, makespan: rep.Time}
}

// measureRungs runs both rungs reps times under cilk and numaws on the
// paper machine, alternating which goes first, and reports the median
// rates. It fails when the two rungs simulate different schedules.
func measureRungs(seed int64, n, reps int) (rungs, error) {
	top, ok := topology.Preset("paper-4x8")
	if !ok {
		return rungs{}, fmt.Errorf("no paper-4x8 topology preset")
	}
	sa, ca := sched.NewArena(), core.NewArena()
	var perEvent, perResume []float64
	for _, pol := range []sched.Policy{sched.Cilk, sched.NUMAWS} {
		cfg := sched.Config{Topology: top, Workers: top.Cores(), Policy: pol, Seed: seed}
		// One unmeasured pair warms both arenas.
		engineOnly(sa, cfg, n)
		throughCore(ca, cfg, n)
		for i := 0; i < reps; i++ {
			var e, c rungRun
			if i%2 == 0 {
				e, c = engineOnly(sa, cfg, n), throughCore(ca, cfg, n)
			} else {
				c, e = throughCore(ca, cfg, n), engineOnly(sa, cfg, n)
			}
			if e.events != c.events || e.makespan != c.makespan {
				return rungs{}, fmt.Errorf("rungs diverge under %s: engine-only %d events / %d cycles, core %d events / %d cycles",
					pol.Name(), e.events, e.makespan, c.events, c.makespan)
			}
			perEvent = append(perEvent, float64(e.wall.Nanoseconds())/float64(e.events))
			perResume = append(perResume, float64((c.wall-e.wall).Nanoseconds())/float64(e.resumes))
		}
	}
	return rungs{nsPerEvent: median(perEvent), nsPerResume: median(perResume)}, nil
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }
