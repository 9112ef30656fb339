package workloads

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

// setLoopOnly sets rt's unexported loopOnly switch, which makes every yield go
// back to the engine's loop instead of continuing the strand on its
// coroutine through sched.Engine.Continue. The switch has no exported
// setter: only this test turns it on.
func setLoopOnly(rt *core.Runtime) {
	f := reflect.ValueOf(rt).Elem().FieldByName("loopOnly")
	*(*bool)(unsafe.Pointer(f.UnsafeAddr())) = true
}

// TestFastPathMatchesEngineLoop pins the runtime's work-first fast path
// (calls, trivial syncs and call returns continued on the strand's
// coroutine through sched.Engine.Continue) as invisible in results. Every
// registered benchmark runs under every registered policy on two machines
// twice: plainly, and with every yield sent back to the engine's loop. The
// two runs' full scheduler statistics, completion time, work, span and
// traced timelines must be equal.
func TestFastPathMatchesEngineLoop(t *testing.T) {
	for _, topo := range []string{"paper-4x8", "2x4"} {
		top, err := topology.Parse(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range Specs(ScaleSmall) {
			for _, name := range sched.Names() {
				pol, err := sched.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(topo+"/"+sp.Name+"/"+name, func(t *testing.T) {
					t.Parallel()
					run := func(loopOnly bool) (*core.Report, *trace.Timeline) {
						tl := trace.New(top.Cores())
						cfg := core.DefaultConfigOn(top, top.Cores(), pol)
						cfg.Sched.Tracer = tl
						rt := core.NewRuntime(cfg)
						if loopOnly {
							setLoopOnly(rt)
						}
						w := sp.Make(pol.Biased() || pol.Pushes())
						w.Prepare(rt)
						rep := rt.Run(w.Root())
						if err := w.Verify(); err != nil {
							t.Fatalf("loop only=%v: %v", loopOnly, err)
						}
						return rep, tl
					}
					fast, fastTL := run(false)
					loop, loopTL := run(true)
					if fast.Time != loop.Time {
						t.Errorf("TP %d with the fast path, %d through the engine loop", fast.Time, loop.Time)
					}
					if fast.DAG != loop.DAG {
						t.Errorf("dag %+v with the fast path, %+v through the engine loop", fast.DAG, loop.DAG)
					}
					if !reflect.DeepEqual(fast.Sched, loop.Sched) {
						t.Errorf("scheduler stats differ:\nfast path   %+v\nengine loop %+v", fast.Sched, loop.Sched)
					}
					if !reflect.DeepEqual(fastTL, loopTL) {
						t.Errorf("timelines differ: %d spans with the fast path, %d through the engine loop",
							fastTL.Spans(), loopTL.Spans())
					}
				})
			}
		}
	}
}
