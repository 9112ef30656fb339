package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// tree is a fork-join program with known work and span: every inner frame
// runs fanout strands of innerCost, each ending in a child of depth-1, then
// a sync strand and a return strand of innerCost; a leaf is one strand of
// leafCost. With callLast the last child is called instead of spawned, so
// the dag has all three kinds of return: called, spawned and the root's.
type tree struct {
	fanout, depth       int
	leafCost, innerCost int64
	callLast            bool
}

func (tr tree) task(depth int) Task {
	return func(ctx Context) {
		if depth == 0 {
			ctx.Compute(tr.leafCost)
			return
		}
		for i := 0; i < tr.fanout; i++ {
			ctx.Compute(tr.innerCost)
			if tr.callLast && i == tr.fanout-1 {
				ctx.Call(tr.task(depth - 1))
			} else {
				ctx.Spawn(tr.task(depth - 1))
			}
		}
		ctx.Compute(tr.innerCost)
		ctx.Sync()
		ctx.Compute(tr.innerCost)
	}
}

// work is the analytic total strand cost.
func (tr tree) work() int64 {
	nodes := int64(1)
	var inner int64
	for d := 0; d < tr.depth; d++ {
		inner += nodes
		nodes *= int64(tr.fanout)
	}
	return nodes*tr.leafCost + inner*int64(tr.fanout+2)*tr.innerCost
}

// span is the analytic longest path, assuming leafCost >= innerCost. Per
// inner level it runs through the strands up to and including the last
// child's, then that child's subtree. A spawned last child runs in
// parallel with the sync strand and dominates it, so the level adds
// fanout+1 strands (the return strand after the join); a called last
// child runs before the sync strand, so the level adds fanout+2.
func (tr tree) span() int64 {
	perLevel := int64(tr.fanout + 1)
	if tr.callLast {
		perLevel++
	}
	return int64(tr.depth)*perLevel*tr.innerCost + tr.leafCost
}

func (tr tree) run(p int, pol sched.Policy, seed int64) *Report {
	return newRT(p, pol, seed).Run(tr.task(tr.depth))
}

func TestWorkMatchesAnalytic(t *testing.T) {
	for _, callLast := range []bool{false, true} {
		tr := tree{fanout: 3, depth: 4, leafCost: 100, innerCost: 7, callLast: callLast}
		if got := tr.run(8, sched.Cilk, 1).DAG.Work; got != tr.work() {
			t.Errorf("callLast=%v: measured work %d, want %d", callLast, got, tr.work())
		}
	}
}

func TestSpanMatchesAnalytic(t *testing.T) {
	for _, callLast := range []bool{false, true} {
		tr := tree{fanout: 2, depth: 5, leafCost: 100, innerCost: 3, callLast: callLast}
		if got := tr.run(8, sched.Cilk, 1).DAG.Span; got != tr.span() {
			t.Errorf("callLast=%v: measured span %d, want %d", callLast, got, tr.span())
		}
	}
}

// TestDagInvariantAcrossSchedules: a program that charges compute alone
// measures the same dag across P, every registered policy and seed.
func TestDagInvariantAcrossSchedules(t *testing.T) {
	tr := tree{fanout: 3, depth: 5, leafCost: 50, innerCost: 5, callLast: true}
	base := tr.run(1, sched.Cilk, 1).DAG
	for _, name := range sched.Names() {
		pol, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 8, 32} {
			for _, seed := range []int64{2, 99} {
				if got := tr.run(p, pol, seed).DAG; got != base {
					t.Errorf("P=%d %s seed=%d: dag %+v differs from base %+v", p, name, seed, got, base)
				}
			}
		}
	}
}

// Property: for random tree shapes, span <= work, and parallelism >= 1.
func TestSpanLEWorkProperty(t *testing.T) {
	f := func(fanout, depth uint8, leaf uint16, callLast bool) bool {
		tr := tree{
			fanout:    int(fanout)%4 + 1,
			depth:     int(depth)%5 + 1,
			leafCost:  int64(leaf)%500 + 1,
			innerCost: 3,
			callLast:  callLast,
		}
		d := tr.run(4, sched.NUMAWS, 7).DAG
		return d.Span <= d.Work && d.Parallelism() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMakespanRespectsDagBounds: T_P >= max(Work/P, Span) against the
// measured dag (engine bookkeeping only adds time).
func TestMakespanRespectsDagBounds(t *testing.T) {
	tr := tree{fanout: 4, depth: 5, leafCost: 2000, innerCost: 10}
	for _, p := range []int{1, 8, 32} {
		rep := tr.run(p, sched.NUMAWS, 1)
		if rep.Time < rep.DAG.Work/int64(p) {
			t.Errorf("P=%d: makespan %d below Work/P = %d", p, rep.Time, rep.DAG.Work/int64(p))
		}
		if rep.Time < rep.DAG.Span {
			t.Errorf("P=%d: makespan %d below Span %d", p, rep.Time, rep.DAG.Span)
		}
	}
}

// TestEmptyGraph: an empty dag, a program that charges nothing and a
// serial run all measure zeros.
func TestEmptyGraph(t *testing.T) {
	if (DAG{}).Parallelism() != 0 {
		t.Error("empty dag should have parallelism 0")
	}
	if d := newRT(4, sched.Cilk, 1).Run(func(Context) {}).DAG; d != (DAG{}) {
		t.Errorf("a program that charges nothing measured %+v", d)
	}
	if d := newRT(1, sched.Cilk, 1).RunSerial(fib(8)).DAG; d != (DAG{}) {
		t.Errorf("a serial run measured %+v", d)
	}
}

// TestRecordedDagOnRealProgram measures a program's dag end to end: the
// work must not exceed the engine's work total, the span must bound the
// makespan from below, and the dag must be identical across worker counts.
func TestRecordedDagOnRealProgram(t *testing.T) {
	mk := func() Task {
		var rec func(depth int) Task
		rec = func(depth int) Task {
			return func(ctx Context) {
				if depth == 0 {
					ctx.Compute(500)
					return
				}
				ctx.Spawn(rec(depth - 1))
				ctx.Call(rec(depth - 1))
				ctx.Sync()
				ctx.Compute(5)
			}
		}
		return rec(6)
	}
	r1 := newRT(1, sched.NUMAWS, 1).Run(mk())
	r32 := newRT(32, sched.NUMAWS, 1).Run(mk())

	// The program charges compute alone, so its dag is schedule-invariant.
	if r1.DAG != r32.DAG {
		t.Errorf("dag differs across P: %+v at P=1, %+v at P=32", r1.DAG, r32.DAG)
	}
	// Pure strand work (dag) plus engine bookkeeping equals the engine's
	// work total; the dag work must never exceed it.
	if r32.DAG.Work > r32.Sched.WorkTotal() {
		t.Errorf("dag work %d exceeds engine work %d", r32.DAG.Work, r32.Sched.WorkTotal())
	}
	// Lower bounds on the makespan from the measured dag.
	if r32.Time < r32.DAG.Span {
		t.Errorf("T32 %d below measured span %d", r32.Time, r32.DAG.Span)
	}
	if r32.Time < r32.DAG.Work/32 {
		t.Errorf("T32 %d below measured work/32 %d", r32.Time, r32.DAG.Work/32)
	}
	if p := r32.DAG.Parallelism(); p < 2 {
		t.Errorf("parallelism %f too low for a 64-leaf binary tree", p)
	}
}
