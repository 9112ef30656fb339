package main

import (
	"context"
	"regexp"
	"testing"

	"repro/internal/workloads"
)

// tinyConfig shrinks every workload so the smoke test stays fast.
func tinyConfig(t *testing.T, trace bool) *config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(root, 1, 1, trace)
	cfg.workDir = t.TempDir()
	cfg.setups = 1
	cfg.windows = 2
	cfg.sizes = sizes{spawnScale: workloads.ScaleSmall, spawnSeeds: 1, warmSeeds: 2,
		warmups: 2, traceQueries: 2, rungN: 10, rungReps: 1}
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsMatchBenchmarkJSON pins the metric tables to BENCHMARK.json
// and checks that a real run prints exactly the declared names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, workloadList[i].name)
		}
	}
	declared := map[string]string{}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end_to_end metrics, the bench %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], bench %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if want := map[bool]string{true: "higher", false: "lower"}[i < len(endToEnd) && endToEnd[i].higher]; m.Better != want {
			t.Errorf("end_to_end %s: better %q, want %q", m.Name, m.Better, want)
		}
		declared[m.Name] = m.Unit
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per_layer metrics, the bench %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], bench %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		declared[m.Name] = m.Unit
	}

	w, _ := workloadNamed("service-cold")
	for _, trace := range []bool{false, true} {
		res, err := runWorkload(context.Background(), tinyConfig(t, trace), w, testWriter{t})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace=%t: incorrect: %v", trace, res.Failures)
		}
		line := res.line(trace)
		want := len(endToEnd)
		if trace {
			want = len(perLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("trace=%t: printed %d metrics, want %d", trace, len(line.Metrics), want)
		}
		for name, m := range line.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
			}
			if unit, ok := declared[name]; !ok || unit != m.Unit {
				t.Errorf("printed metric %s [%s] is not declared in BENCHMARK.json", name, m.Unit)
			}
		}
	}
}

// TestTracedCyclesMatchUntraced re-executes a small tournament's run
// tuples with the tracing decorator: each must measure exactly the cycles
// its untraced run did, and no layer's share of Run may be negative.
func TestTracedCyclesMatchUntraced(t *testing.T) {
	cfg := tinyConfig(t, true)
	var tl tally
	inst, err := startSpawnTree(context.Background(), cfg, &tl)
	if err != nil {
		t.Fatal(err)
	}
	info, err := inst.rep(context.Background(), &tl)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := uniqueTuples(info.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 10 {
		t.Fatalf("%d tuples, want 2 benchmarks x 5 policies", len(tuples))
	}
	x, rec := newExecutor(), newRecorder(true)
	var led ledger
	for _, tp := range tuples {
		c, err := x.run(tp, rec)
		if err != nil {
			t.Fatal(err)
		}
		if c.resumes == 0 {
			t.Errorf("%s: the decorator saw no strand", tp)
		}
		led.add(tp, c)
	}
	if err := led.attribute(map[string]float64{}, rungs{nsPerEvent: 100, nsPerResume: 300}); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("untraced checks failed: %v", tl.failures)
	}
}

// TestRungsSimulateTheSameSchedule: the engine-only and handoff rungs run
// one schedule, so their events and makespans agree (measureRungs fails
// otherwise), and the engine's rate is positive.
func TestRungsSimulateTheSameSchedule(t *testing.T) {
	rg, err := measureRungs(3, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rg.nsPerEvent <= 0 {
		t.Errorf("engine rate %v ns/event, want > 0", rg.nsPerEvent)
	}
}

// TestPercentileNeedsTenSamplesBeyond: a tail percentile is reported only
// when at least ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.90, false}, {100, 0.90, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.50, false}, {20, 0.50, true},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.ok {
			t.Errorf("p%g of %d samples: reported %t, want %t", 100*c.q, c.n, ok, c.ok)
		}
	}
	if v, _ := percentile(seq(100), 0.90); v < 90 || v > 91 {
		t.Errorf("p90 of 1..100 = %v", v)
	}
}

// testWriter routes the bench's progress lines to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
