package workloads

// Tests for the five Cilk-suite additions: every benchmark verifies at
// both registered scales under both platforms (the acceptance gate for
// opening the suite), plus per-benchmark structural checks.

import (
	"math/bits"
	"testing"

	"repro/internal/sched"
)

var cilkSuite = []string{"fib", "nqueens", "fft", "lu", "rectmul"}

// TestCilkSuiteVerifiesBothScales runs every new benchmark at ScaleSmall
// and ScaleFull: the serial elision and a P=32 NUMA-WS run (with the
// NUMA-aware configuration, as the harness would build it), each verified
// against the benchmark's serial reference.
func TestCilkSuiteVerifiesBothScales(t *testing.T) {
	for _, name := range cilkSuite {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []Scale{ScaleSmall, ScaleFull} {
			sp := b(scale)
			t.Run(sp.Name+sizeTag(scale), func(t *testing.T) {
				serial := sp.Make(false)
				rt := newWorkloadRT(1, sched.Cilk)
				serial.Prepare(rt)
				ts := rt.RunSerial(serial.Root())
				if ts.Time <= 0 {
					t.Error("TS not positive")
				}
				if err := serial.Verify(); err != nil {
					t.Errorf("serial: %v", err)
				}
				par := sp.Make(true)
				rt = newWorkloadRT(32, sched.NUMAWS)
				par.Prepare(rt)
				tp := rt.Run(par.Root())
				if tp.Time <= 0 || tp.Time >= ts.Time {
					t.Errorf("P=32 time %d not under serial %d", tp.Time, ts.Time)
				}
				if err := par.Verify(); err != nil {
					t.Errorf("parallel aware: %v", err)
				}
			})
		}
	}
}

func sizeTag(s Scale) string {
	if s == ScaleSmall {
		return "/small"
	}
	return "/full"
}

func TestCilkSuiteDeterministicAcrossRuns(t *testing.T) {
	for _, name := range cilkSuite {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := b(ScaleSmall)
		run := func() int64 {
			w := sp.Make(true)
			rt := newWorkloadRT(16, sched.NUMAWS)
			w.Prepare(rt)
			return rt.Run(w.Root()).Time
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: same-seed runs diverged: %d vs %d", name, a, b)
		}
	}
}

func TestFibValue(t *testing.T) {
	// fibValue is the verifier's oracle; pin it against known values.
	for _, tc := range []struct {
		n    int
		want uint64
	}{{0, 0}, {1, 1}, {2, 1}, {10, 55}, {35, 9227465}, {50, 12586269025}} {
		if got := fibValue(tc.n); got != tc.want {
			t.Errorf("fibValue(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// A deep spawn tree still computes the right number.
	w := NewFib(30, 4, Config{})
	rt := newWorkloadRT(8, sched.Cilk)
	w.Prepare(rt)
	rt.Run(w.Root())
	if err := w.Verify(); err != nil {
		t.Error(err)
	}
}

func TestNQueensKnownCounts(t *testing.T) {
	// The parallel search must land exactly on the published counts.
	for _, tc := range []struct {
		n    int
		want int64
	}{{4, 2}, {6, 4}, {8, 92}, {10, 724}} {
		w := NewNQueens(tc.n, 2, Config{})
		rt := newWorkloadRT(8, sched.NUMAWS)
		w.Prepare(rt)
		rt.Run(w.Root())
		if w.count != tc.want {
			t.Errorf("nqueens(%d) = %d, want %d", tc.n, w.count, tc.want)
		}
		if err := w.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// TestNQueensLeafTableMatchesSerial checks the leaf table at both
// registered scales: every entry equals a direct serial search of its
// board, and walking the spawn levels with leaves looked up in the table
// finds the whole board's solutions and visits its nodes.
func TestNQueensLeafTableMatchesSerial(t *testing.T) {
	b, err := Lookup("nqueens")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []Scale{ScaleSmall, ScaleFull} {
		q := b(scale).Make(false).(*NQueens)
		table := q.leafTable()
		for k, got := range table {
			var want leafCount
			want.count = q.serial(bits.OnesCount32(k.cols), k.cols, k.d1, k.d2, &want.nodes)
			if got != want {
				t.Errorf("n=%d leaf %+v: table %+v, serial search %+v", q.n, k, got, want)
			}
		}
		var want leafCount
		want.count = q.serial(0, 0, 0, 0, &want.nodes)
		if got := walkLeaves(t, q, table, 0, 0, 0, 0); got != want {
			t.Errorf("n=%d: spawn levels over the table find %+v, the serial search %+v", q.n, got, want)
		}
	}
}

// walkLeaves is NQueens.search without the runtime: it follows the spawn
// levels, takes each leaf from the table, and counts the nodes above.
func walkLeaves(t *testing.T, q *NQueens, table map[leafKey]leafCount, row int, cols, d1, d2 uint32) leafCount {
	if row == q.n {
		return leafCount{count: 1, nodes: 1}
	}
	if row >= q.depth {
		l, ok := table[leafKey{cols, d1, d2}]
		if !ok {
			t.Errorf("n=%d: leaf %x/%x/%x missing from the table", q.n, cols, d1, d2)
		}
		return l
	}
	total := leafCount{nodes: 1}
	mask := q.mask()
	for f := ^(cols | d1 | d2) & mask; f != 0; f &= f - 1 {
		bit := f & -f
		l := walkLeaves(t, q, table, row+1, cols|bit, (d1|bit)<<1&mask, (d2|bit)>>1)
		total.count += l.count
		total.nodes += l.nodes
	}
	return total
}

// TestNQueensLeafTableBuiltOncePerInput checks that pooled instances share
// one leaf table: runs of both aware configurations, each on its own
// checked-out instance, compute exactly one reference (the table) between
// them.
func TestNQueensLeafTableBuiltOncePerInput(t *testing.T) {
	var spec Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "nqueens" {
			spec = s
		}
	}
	FlushPools()
	ResetPoolCounters()
	for _, aware := range []bool{false, true, false} {
		w, lease := Checkout(spec, aware, false)
		rt := newWorkloadRT(8, sched.NUMAWS)
		w.Prepare(rt)
		rt.Run(w.Root())
		lease.Release()
	}
	if built, pooled, refs, _ := PoolCounters(); built != 2 || pooled != 1 || refs != 1 {
		t.Errorf("three runs built %d instances, reused %d and computed %d references; want 2, 1 and 1",
			built, pooled, refs)
	}
}

func TestFFTAwareReducesRemoteAccesses(t *testing.T) {
	// fft's early passes are band-local: partitioned placement plus hints
	// must service fewer accesses remotely than first-touch on socket 0.
	run := func(aware bool) int64 {
		w := NewFFT(1<<12, 16, Config{Aware: aware, Seed: 42})
		rt := newWorkloadRT(32, sched.NUMAWS)
		w.Prepare(rt)
		rep := rt.Run(w.Root())
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		return rep.Cache.Remote()
	}
	if aware, base := run(true), run(false); aware >= base {
		t.Errorf("aware fft has %d remote accesses, baseline %d; banding+hints should reduce them",
			aware, base)
	}
}

func TestLUAwareReducesRemoteAccesses(t *testing.T) {
	// The matrix must outgrow the per-socket LLC (1 MiB): below that the
	// whole factorization is cache-resident and placement cannot matter.
	// Even above it the effect is modest — the pivot panels are shared by
	// every trailing row band, so a fixed fraction of lu's traffic is
	// inherently remote — but it is deterministic and directionally
	// consistent.
	run := func(aware bool) int64 {
		w := NewLU(256, 32, Config{Aware: aware, Seed: 42})
		rt := newWorkloadRT(32, sched.NUMAWS)
		w.Prepare(rt)
		rep := rt.Run(w.Root())
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		return rep.Cache.Remote()
	}
	if aware, base := run(true), run(false); aware >= base {
		t.Errorf("aware lu has %d remote accesses, baseline %d; banding+hints should reduce them",
			aware, base)
	}
}

func TestRectmulRoundsDimensionsUp(t *testing.T) {
	w := NewRectmul(33, 17, 50, 16, Config{Seed: 1})
	if w.m != 48 || w.p != 32 || w.n != 64 {
		t.Errorf("rounded dims = %dx%dx%d, want 48x32x64", w.m, w.p, w.n)
	}
	rt := newWorkloadRT(8, sched.Cilk)
	w.Prepare(rt)
	rt.Run(w.Root())
	if err := w.Verify(); err != nil {
		t.Error(err)
	}
}
