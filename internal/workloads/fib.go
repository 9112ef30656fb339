package workloads

import (
	"fmt"

	"repro/internal/core"
)

// Fib is the classic Cilk fib benchmark: the doubly recursive Fibonacci
// computation, the canonical spawn-overhead stress test. Its dag is a pure
// binary spawn tree with no memory footprint at all — every strand is
// spawn bookkeeping plus a little arithmetic — so it isolates the
// scheduler's per-spawn and per-steal costs from the memory system.
//
// Like matmul and strassen, fib takes no locality hints on either
// platform: there is no data to co-locate with, so the aware flag is
// dropped.
type Fib struct {
	reusable
	n, base int
	result  uint64
	// free recycles the recursion's nodes. One run owns the instance at a
	// time, and a node goes back only after its sync has joined both
	// children, so no live strand can still reach a node on the list. A run
	// that is aborted mid-tree simply never returns the nodes it was
	// using; a later run builds new ones.
	free []*fibNode
}

// fibNode is the state of one internal call of the recursion: its
// argument, its two children's results and the two tasks computing them,
// bound to the node once when it is first built. Recycling nodes keeps a
// steady-state run from allocating per spawn.
type fibNode struct {
	n           int
	a, b        uint64
	left, right core.Task
}

// NewFib builds a fib(n) computation that spawns recursively down to
// fib(base), below which it computes serially. Config is accepted for
// suite uniformity; fib has no inputs to seed and no placement to choose.
func NewFib(n, base int, _ Config) *Fib {
	if base < 2 {
		base = 2
	}
	if n < 0 {
		n = 0
	}
	return &Fib{n: n, base: base}
}

// Name implements Workload.
func (f *Fib) Name() string { return "fib" }

// Prepare implements Workload: fib allocates nothing.
func (f *Fib) Prepare(*core.Runtime) {}

// Root implements Workload.
func (f *Fib) Root() core.Task {
	return func(ctx core.Context) {
		f.result = f.rec(ctx, f.n)
	}
}

// rec is the Cilk fib recursion: spawn fib(n-1), call fib(n-2), sync,
// add. Below base the subtree runs serially.
func (f *Fib) rec(ctx core.Context, n int) uint64 {
	if n < f.base {
		return fibLeaf(ctx, n)
	}
	nd := f.node(n)
	ctx.Spawn(nd.left)
	ctx.Call(nd.right)
	ctx.Sync()
	ctx.Compute(4) // the two returns and the add
	r := nd.a + nd.b
	f.free = append(f.free, nd)
	return r
}

// node returns a recycled or new node for fib(n).
func (f *Fib) node(n int) *fibNode {
	if k := len(f.free); k > 0 {
		nd := f.free[k-1]
		f.free = f.free[:k-1]
		nd.n = n
		return nd
	}
	nd := &fibNode{n: n}
	nd.left = func(c core.Context) { nd.a = f.rec(c, nd.n-1) }
	nd.right = func(c core.Context) { nd.b = f.rec(c, nd.n-2) }
	return nd
}

// fibLeaf is the serial base case. The value is computed iteratively (so
// the host cost stays linear) while the strand is charged what the serial
// doubly recursive fib(n) would cost: one visit per call-tree node, and the
// recursive serial fib(n) makes 2*fib(n+1)-1 calls.
func fibLeaf(ctx core.Context, n int) uint64 {
	calls := 2*fibValue(n+1) - 1
	ctx.Compute(int64(calls) * 3)
	return fibValue(n)
}

// fibValue is the iterative reference (exact in uint64 for n <= 93).
func fibValue(n int) uint64 {
	var a, b uint64 = 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// Verify implements Workload: the spawned recursion must agree with the
// iterative serial reference.
func (f *Fib) Verify() error {
	if want := fibValue(f.n); f.result != want {
		return fmt.Errorf("fib: fib(%d) = %d, want %d", f.n, f.result, want)
	}
	return nil
}
