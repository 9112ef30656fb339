package workloads

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// NQueens is the classic Cilk nqueens benchmark: count every placement of
// n non-attacking queens on an n x n board by backtracking search. The
// parallel dag is highly irregular — each branch point has a
// data-dependent number of children and subtree sizes vary by orders of
// magnitude — which exercises the scheduler's load balancing in a way the
// regular divide-and-conquer benchmarks do not.
//
// Like fib, nqueens carries no data arrays, so it is hint-free on both
// platforms: the aware flag is dropped.
type NQueens struct {
	reusable
	refShared
	n     int
	depth int // spawn per row down to this depth, then search serially
	count int64
}

// leafKey is the board state of a serial leaf: the attacked columns and
// diagonals. The row is implied (the number of columns taken). Different
// placements of the spawned rows can leave the same board, since diagonals
// shift off its edge; their serial searches are the same.
type leafKey struct{ cols, d1, d2 uint32 }

// leafCount is what a serial leaf's search finds: its solutions and the
// nodes it visits to count them.
type leafCount struct{ count, nodes int64 }

// NewNQueens builds an n-queens counting search that spawns a task per
// viable queen placement for the first depth rows. Config is accepted for
// suite uniformity; the search has no inputs to seed.
func NewNQueens(n, depth int, _ Config) *NQueens {
	if n < 1 {
		n = 1
	}
	if depth < 0 {
		depth = 0
	}
	if depth > n {
		depth = n
	}
	return &NQueens{n: n, depth: depth}
}

// Name implements Workload.
func (q *NQueens) Name() string { return "nqueens" }

// Prepare implements Workload: the board state is three bitmasks passed
// down the recursion; nothing is allocated.
func (q *NQueens) Prepare(*core.Runtime) {}

// Root implements Workload.
func (q *NQueens) Root() core.Task {
	return func(ctx core.Context) {
		q.count = q.search(ctx, q.leafTable(), 0, 0, 0, 0)
	}
}

func (q *NQueens) mask() uint32 { return 1<<uint(q.n) - 1 }

// search counts completions from a partial placement: row queens placed,
// cols/diag1/diag2 the attacked sets as bitmasks. Above the spawn depth
// each viable column spawns a child counting into its own slot (no shared
// state, so the same code is race-free under real parallelism); below it
// the leaf's serial search is looked up in leaves and its strand charged
// eight cycles per node that search visits.
func (q *NQueens) search(ctx core.Context, leaves map[leafKey]leafCount, row int, cols, d1, d2 uint32) int64 {
	if row == q.n {
		return 1
	}
	if row >= q.depth {
		l := leaves[leafKey{cols, d1, d2}]
		// Eight cycles per visited node: the candidate-mask arithmetic,
		// the branch, and the call overhead of the serial recursion.
		ctx.Compute(l.nodes * 8)
		return l.count
	}
	mask := q.mask()
	free := ^(cols | d1 | d2) & mask
	// One slot per candidate column: children write disjoint slots and the
	// parent sums after the sync, keeping the count deterministic.
	counts := make([]int64, q.n)
	spawned := 0
	for f := free; f != 0; f &= f - 1 {
		bit := f & -f
		col := bits.TrailingZeros32(bit)
		ncols, nd1, nd2 := cols|bit, (d1|bit)<<1&mask, (d2|bit)>>1
		slot := &counts[col]
		last := f == bit // final candidate runs in place, Cilk style
		body := func(c core.Context) { *slot = q.search(c, leaves, row+1, ncols, nd1, nd2) }
		if last {
			ctx.Call(body)
		} else {
			ctx.Spawn(body)
		}
		spawned++
	}
	ctx.Sync()
	ctx.Compute(int64(spawned) * 4)
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// leafTable returns the serial search result of every leaf the spawn tree
// reaches. A leaf's result is a pure function of its board, so the table
// is built once per input, single-flight through the input's shared
// reference cache, and only read afterwards — by every run of the input,
// including runs on other goroutines under concurrent -jobs, and by every
// strand of a run.
func (q *NQueens) leafTable() map[leafKey]leafCount {
	v, _ := q.refCache().Do("nqueens.leaves", func() (any, error) {
		t := map[leafKey]leafCount{}
		q.collectLeaves(t, 0, 0, 0, 0)
		return t, nil
	})
	return v.(map[leafKey]leafCount)
}

// collectLeaves walks the spawn levels exactly as search does and records
// each leaf's serial search in t.
func (q *NQueens) collectLeaves(t map[leafKey]leafCount, row int, cols, d1, d2 uint32) {
	if row == q.n {
		return
	}
	if row >= q.depth {
		var l leafCount
		l.count = q.serial(row, cols, d1, d2, &l.nodes)
		t[leafKey{cols, d1, d2}] = l
		return
	}
	mask := q.mask()
	for f := ^(cols | d1 | d2) & mask; f != 0; f &= f - 1 {
		bit := f & -f
		q.collectLeaves(t, row+1, cols|bit, (d1|bit)<<1&mask, (d2|bit)>>1)
	}
}

// serial is the sequential backtracking base case, counting visited nodes
// so the caller can charge the strand.
func (q *NQueens) serial(row int, cols, d1, d2 uint32, nodes *int64) int64 {
	*nodes++
	if row == q.n {
		return 1
	}
	var total int64
	mask := q.mask()
	for f := ^(cols | d1 | d2) & mask; f != 0; f &= f - 1 {
		bit := f & -f
		total += q.serial(row+1, cols|bit, (d1|bit)<<1&mask, (d2|bit)>>1, nodes)
	}
	return total
}

// Verify implements Workload: recount serially (an independent walk of the
// same search space, not derived from the leaf table) and, for board sizes
// with published solution counts, cross-check against the known value.
func (q *NQueens) Verify() error {
	v, _ := q.refCache().Do("nqueens.want", func() (any, error) {
		var nodes int64
		return q.serial(0, 0, 0, 0, &nodes), nil
	})
	want := v.(int64)
	if q.count != want {
		return fmt.Errorf("nqueens: counted %d solutions for n=%d, serial recount says %d", q.count, q.n, want)
	}
	// Known counts (OEIS A000170) for the sizes the suite uses.
	known := map[int]int64{
		4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
		11: 2680, 12: 14200, 13: 73712,
	}
	if k, ok := known[q.n]; ok && q.count != k {
		return fmt.Errorf("nqueens: counted %d solutions for n=%d, the published count is %d", q.count, q.n, k)
	}
	return nil
}
