package numaws_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/numaws"
)

func small(t *testing.T, opts ...numaws.Option) *numaws.Session {
	t.Helper()
	s, err := numaws.New(append([]numaws.Option{numaws.WithScale(numaws.ScaleSmall)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []numaws.Option
		want string // substring of the expected error
	}{
		{"unknown topology", []numaws.Option{numaws.WithTopology("nope")}, "unknown topology"},
		{"unknown policy", []numaws.Option{numaws.WithPolicy("nope")}, "cilk, numaws"},
		{"empty policy", []numaws.Option{numaws.WithPolicy("")}, "empty policy"},
		{"too many workers", []numaws.Option{numaws.WithTopology("2x4"), numaws.WithWorkers(9)}, "out of range"},
		{"negative workers", []numaws.Option{numaws.WithWorkers(-1)}, "negative"},
		{"zero seed", []numaws.Option{numaws.WithSeed(0)}, "non-zero"},
		{"zero seeds", []numaws.Option{numaws.WithSeeds(0)}, "at least one seed"},
		{"zero jobs", []numaws.Option{numaws.WithJobs(0)}, "at least one job"},
		{"unknown bench", []numaws.Option{numaws.WithBenchmarks("nope")}, "no benchmark named"},
		{"duplicate bench", []numaws.Option{numaws.WithBenchmarks("heat", "heat")}, "named twice"},
		{"bad scale", []numaws.Option{numaws.WithScale(numaws.Scale(99))}, "unknown scale"},
		{"zero option", []numaws.Option{{}}, "zero Option"},
	} {
		_, err := numaws.New(tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSessionDescribesItsConfiguration(t *testing.T) {
	s := small(t, numaws.WithTopology("2x4"), numaws.WithPolicy("cilk"), numaws.WithWorkers(6))
	m := s.Machine()
	if m.Name != "2x4" || m.Sockets != 2 || m.Cores != 8 || !strings.Contains(m.Description, "2 sockets") {
		t.Errorf("machine = %+v", m)
	}
	if s.Policy() != "cilk" || s.Workers() != 6 {
		t.Errorf("policy/workers = %s/%d, want cilk/6", s.Policy(), s.Workers())
	}
	// Default worker count is the whole machine — the full core count,
	// with no stale 32-worker cap on big topologies.
	if got := small(t, numaws.WithTopology("8x16")).Workers(); got != 128 {
		t.Errorf("default workers on 8x16 = %d, want 128", got)
	}
	// The default suite is the registered one: the paper's nine plus the
	// five Cilk-suite additions. (Tests registering their own benchmarks
	// unregister on cleanup, so the count is stable.)
	benches := small(t).Benchmarks()
	if len(benches) != 14 {
		t.Fatalf("%d benchmarks, want 14", len(benches))
	}
	sub := small(t, numaws.WithBenchmarks("heat", "cg")).Benchmarks()
	if len(sub) != 2 || sub[0].Name != "heat" || sub[1].Name != "cg" {
		t.Errorf("restricted suite = %+v", sub)
	}
}

func TestDiscoveryLists(t *testing.T) {
	topos := numaws.Topologies()
	if len(topos) == 0 || topos[0] != "paper-4x8" {
		t.Errorf("Topologies() = %v", topos)
	}
	pols := numaws.Policies()
	want := []string{"adaptive-bias", "cilk", "numaws", "socket-first", "steal-half"}
	if !slices.Equal(pols, want) {
		t.Errorf("Policies() = %v, want %v", pols, want)
	}
}

func TestMeasureAndRun(t *testing.T) {
	s := small(t, numaws.WithWorkers(8), numaws.WithBenchmarks("cilksort"))
	row, err := s.Measure(t.Context(), "cilksort")
	if err != nil {
		t.Fatal(err)
	}
	if row.Name != "cilksort" || row.P != 8 || row.TS <= 0 || row.Cilk.T1 <= 0 || row.NUMAWS.TP <= 0 {
		t.Errorf("row = %+v", row)
	}
	if row.NUMAWS.Scalability() <= 1 {
		t.Errorf("no speedup at P=8: %.2f", row.NUMAWS.Scalability())
	}
	rep, err := s.Run(t.Context(), "cilksort")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "numaws" || rep.Workers != 8 || rep.Time <= 0 || rep.Work <= 0 {
		t.Errorf("run report = %+v", rep)
	}
	if rep.Accesses.PrivateHit == 0 {
		t.Error("run report missing memory accesses")
	}
	ts, err := s.RunSerial(t.Context(), "cilksort")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Policy != "serial" || ts.Workers != 1 || ts.Time <= rep.Time {
		t.Errorf("serial report = %+v (parallel %d)", ts, rep.Time)
	}
	if _, err := s.Measure(t.Context(), "heat"); err == nil {
		t.Error("Measure of a benchmark outside the session's suite succeeded")
	}
}

// TestSingleBenchUnknownName pins that the single-benchmark methods resolve
// their name like every other benchmark list (harness.SelectSpecs), so an
// unknown name reads the same wherever it is given.
func TestSingleBenchUnknownName(t *testing.T) {
	s := small(t, numaws.WithWorkers(2), numaws.WithBenchmarks("fib", "heat"))
	const want = `numaws: no benchmark named "cg" (want fib, heat)`
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Run", func() error { _, err := s.Run(t.Context(), "cg"); return err }},
		{"RunSerial", func() error { _, err := s.RunSerial(t.Context(), "cg"); return err }},
		{"Measure", func() error { _, err := s.Measure(t.Context(), "cg"); return err }},
		{"Timeline", func() error { _, err := s.Timeline(t.Context(), "cg", 40); return err }},
		{"MeasureAll", func() error { _, err := s.MeasureAll(t.Context(), "cg"); return err }},
	} {
		if err := c.call(); err == nil || err.Error() != want {
			t.Errorf("%s(cg) error = %v, want %q", c.name, err, want)
		}
	}
}

func TestEachStreamsAndAgreesWithMeasureAll(t *testing.T) {
	s := small(t, numaws.WithWorkers(8), numaws.WithSeeds(2), numaws.WithBenchmarks("cilksort", "heat"))
	var mu sync.Mutex
	var runs []numaws.Run
	rows, err := s.Each(t.Context(), func(r numaws.Run) {
		mu.Lock()
		runs = append(runs, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 specs x (TS + 2 platforms x (T1 + 2 seed runs)).
	if want := 2 * (1 + 2*(1+2)); len(runs) != want {
		t.Errorf("streamed %d runs, want %d", len(runs), want)
	}
	for _, r := range runs {
		if r.Time <= 0 {
			t.Errorf("streamed run %+v has non-positive time", r)
		}
	}
	plain, err := s.MeasureAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(plain) != 2 || rows[0] != plain[0] || rows[1] != plain[1] {
		t.Errorf("Each rows differ from MeasureAll rows:\n%+v\n%+v", rows, plain)
	}
	if _, err := s.Each(t.Context(), nil); err == nil {
		t.Error("Each with a nil callback succeeded")
	}
}

// TestMeasureAllPreCancelled pins prompt failure under an already-cancelled
// context: no simulation runs, the context's error surfaces, and no
// goroutine outlives the call.
func TestMeasureAllPreCancelled(t *testing.T) {
	s := small(t, numaws.WithWorkers(8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rows, err := s.MeasureAll(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Errorf("cancelled MeasureAll returned rows: %+v", rows)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled MeasureAll took %v, want prompt return", d)
	}
}

// TestMeasureAllMidRunCancellation pins the streaming-cancellation
// contract: cancelling mid-sweep stops the run promptly with ctx.Err(),
// the rows streamed before the cancellation are valid measurements, and no
// goroutines leak (goleak-style before/after counting).
func TestMeasureAllMidRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	s := small(t, numaws.WithWorkers(8), numaws.WithJobs(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var partial []numaws.Run
	rows, err := s.Each(ctx, func(r numaws.Run) {
		mu.Lock()
		partial = append(partial, r)
		mu.Unlock()
		if len(partial) == 3 {
			cancel() // cancel from inside the stream, mid-run
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Errorf("cancelled Each returned aggregated rows: %+v", rows)
	}
	// The grid is 14 specs x 7 runs = 98 simulations; cancelling after 3
	// must stop the sweep long before it completes.
	mu.Lock()
	got := len(partial)
	mu.Unlock()
	if got < 3 || got > 20 {
		t.Errorf("%d runs streamed around the cancellation, want a small partial prefix", got)
	}
	// Partial rows received before the cancel are valid measurements.
	for _, r := range partial {
		if r.Time <= 0 || r.Bench == "" || r.Policy == "" {
			t.Errorf("partial streamed run invalid: %+v", r)
		}
	}
	// goleak-style check: every pool and simulation goroutine has exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across a cancelled sweep: %d before, %d after", before, after)
	}
}

// TestScalabilityAndSweep covers the curve surfaces end to end at small
// scale.
func TestScalabilityAndSweep(t *testing.T) {
	s := small(t, numaws.WithBenchmarks("cilksort"))
	series, err := s.Scalability(t.Context(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Name != "cilksort" {
		t.Fatalf("series = %+v", series)
	}
	if sp := series[0].Speedup(); sp[0] != 1 || sp[1] <= 1 {
		t.Errorf("speedup = %v", sp)
	}
	sweeps, err := s.Sweep(t.Context(), []string{"2x4", "uniform"}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 2 || sweeps[0].Topology != "2x4" || sweeps[1].Topology != "uniform" {
		t.Fatalf("sweeps = %+v", sweeps)
	}
	if _, err := s.Sweep(t.Context(), []string{"nope"}, nil); err == nil {
		t.Error("sweep over an unknown topology succeeded")
	}
}

func TestDAGsAndTimeline(t *testing.T) {
	s := small(t, numaws.WithWorkers(8), numaws.WithBenchmarks("cilksort", "heat"))
	dags, err := s.DAGs(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(dags) != 2 || dags[0].Bench != "cilksort" || dags[1].Bench != "heat" {
		t.Fatalf("dags = %+v", dags)
	}
	for _, d := range dags {
		if d.Work <= 0 || d.Span <= 0 || d.Span > d.Work || d.Parallelism <= 1 {
			t.Errorf("implausible dag: %+v", d)
		}
	}
	tls, err := s.Timeline(t.Context(), "heat", 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 2 || tls[0].Policy != "cilk" || tls[1].Policy != "numaws" {
		t.Fatalf("timelines = %+v", tls)
	}
	for _, tl := range tls {
		if tl.Time <= 0 || tl.Chart == "" || tl.P != 8 {
			t.Errorf("timeline %s incomplete: time=%d p=%d", tl.Policy, tl.Time, tl.P)
		}
	}
	// A cilk session records one timeline, not the same policy twice.
	cs := small(t, numaws.WithWorkers(8), numaws.WithPolicy("cilk"), numaws.WithBenchmarks("heat"))
	one, err := cs.Timeline(t.Context(), "heat", 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Policy != "cilk" {
		t.Errorf("cilk session timelines = %+v", one)
	}
}

// A timeline runs under the session's run deadline like every other
// single-run surface: past it, the run is a timeout RunFailure, not a
// chart of a run that ignored the deadline.
func TestTimelineHonorsRunTimeout(t *testing.T) {
	s := small(t, numaws.WithRunTimeout(time.Microsecond))
	tls, err := s.Timeline(t.Context(), "heat", 40)
	var rf *numaws.RunFailure
	if !errors.As(err, &rf) || rf.Kind != "timeout" {
		t.Errorf("Timeline past its deadline: timelines = %d, err = %v, want a timeout RunFailure", len(tls), err)
	}
}

// sumTree is the quickstart computation: sum of squares by binary
// spawning.
func sumTree(lo, hi int, out *int64) numaws.Task {
	return func(ctx numaws.Context) {
		if hi-lo <= 1024 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i) * int64(i)
			}
			*out = s
			ctx.Compute(int64(hi - lo))
			return
		}
		mid := (lo + hi) / 2
		var left, right int64
		ctx.Spawn(sumTree(lo, mid, &left))
		ctx.Call(sumTree(mid, hi, &right))
		ctx.Sync()
		*out = left + right
		ctx.Compute(1)
	}
}

func TestRunTaskUserComputation(t *testing.T) {
	s := small(t, numaws.WithWorkers(16))
	const n = 1 << 18
	var want int64
	for i := int64(0); i < n; i++ {
		want += i * i
	}
	var serialSum int64
	ts, err := s.RunTaskSerial(t.Context(), sumTree(0, n, &serialSum))
	if err != nil {
		t.Fatal(err)
	}
	if serialSum != want || ts.Time <= 0 || ts.Policy != "serial" {
		t.Errorf("serial: sum=%d (want %d), report %+v", serialSum, want, ts)
	}
	var parSum int64
	rep, err := s.RunTask(t.Context(), sumTree(0, n, &parSum))
	if err != nil {
		t.Fatal(err)
	}
	if parSum != want {
		t.Errorf("parallel sum = %d, want %d", parSum, want)
	}
	if rep.Time >= ts.Time {
		t.Errorf("16 workers (%d cycles) not faster than serial (%d)", rep.Time, ts.Time)
	}
	if rep.Steals == 0 {
		t.Error("parallel run recorded no steals")
	}
	// Determinism: the same session replays the same virtual time.
	var again int64
	rep2, err := s.RunTask(t.Context(), sumTree(0, n, &again))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Time != rep.Time {
		t.Errorf("same-seed RunTask differs: %d vs %d", rep2.Time, rep.Time)
	}
	// Pre-cancelled contexts short-circuit user computations too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunTask(ctx, sumTree(0, n, &again)); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTask under cancelled ctx: %v", err)
	}
}

func TestRenderersAndExporters(t *testing.T) {
	s := small(t, numaws.WithWorkers(8), numaws.WithBenchmarks("cilksort"))
	rows, err := s.MeasureAll(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for name, table := range map[string]string{
		"Table7": numaws.Table7(rows),
		"Table8": numaws.Table8(rows),
		"Fig3":   numaws.Fig3(rows),
	} {
		if !strings.Contains(table, "cilksort") {
			t.Errorf("%s missing the benchmark row:\n%s", name, table)
		}
	}
	var b strings.Builder
	if err := numaws.WriteExport(&b, numaws.Export{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"cilksort"`) || !strings.Contains(b.String(), `"work_inflation"`) {
		t.Errorf("JSON export incomplete:\n%s", b.String())
	}
	b.Reset()
	if err := numaws.WriteRowsCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(b.String()), "\n") + 1; lines != 2 {
		t.Errorf("rows CSV has %d lines, want header + 1 row:\n%s", lines, b.String())
	}
	if grid := numaws.MortonGrid(4); !strings.Contains(grid, "0") {
		t.Errorf("MortonGrid empty:\n%s", grid)
	}
}

func TestScalabilityRejectsExplicitCurvelessBench(t *testing.T) {
	s := small(t)
	// matmul exists in the suite but has no Fig. 9 curve: naming it
	// explicitly must error, not silently return an empty result.
	if _, err := s.Scalability(t.Context(), []int{1, 4}, "matmul"); err == nil ||
		!strings.Contains(err.Error(), "no scalability curve") {
		t.Errorf("Scalability(matmul) err = %v, want a no-curve error", err)
	}
}

func TestMeasureAllRejectsDuplicateNames(t *testing.T) {
	s := small(t)
	// The same rule as WithBenchmarks: duplicates are an error, not a
	// silent doubling of the simulation grid.
	if _, err := s.MeasureAll(t.Context(), "heat", "heat"); err == nil ||
		!strings.Contains(err.Error(), "named twice") {
		t.Errorf("MeasureAll(heat, heat) err = %v, want named-twice error", err)
	}
}

// TestEachDistinguishesBaselineColumn pins the streaming column
// discriminator: with the session policy set to "cilk" the comparison
// degenerates to cilk-vs-cilk, and only the Baseline flag tells the two
// columns' otherwise identical runs apart.
func TestEachDistinguishesBaselineColumn(t *testing.T) {
	s := small(t, numaws.WithWorkers(4), numaws.WithPolicy("cilk"), numaws.WithBenchmarks("cilksort"))
	var mu sync.Mutex
	baseline, policyCol := 0, 0
	if _, err := s.Each(t.Context(), func(r numaws.Run) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Serial:
			if r.Baseline {
				t.Errorf("serial run flagged as baseline: %+v", r)
			}
		case r.Baseline:
			baseline++
		default:
			policyCol++
		}
	}); err != nil {
		t.Fatal(err)
	}
	// T1 + one seed run per column, identical (Bench, Policy, P, Seed)
	// tuples — distinguishable only by Baseline.
	if baseline != 2 || policyCol != 2 {
		t.Errorf("column split baseline=%d policy=%d, want 2/2", baseline, policyCol)
	}
}
