package numaws

// The session result cache, observed from inside the facade: the paper's
// `numaws all` pipeline measures overlapping tuples in its sections, and a
// session answers every repeat from its cache instead of simulating it.

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/harness"
)

// TestSessionSimulatesEachTupleOnce runs the measuring sections of `all`
// on one paper-4x8 small session over the paper nine: Fig. 3's seven,
// then the tables' nine, then the Fig. 9 curves. Of the 115 runs streamed,
// exactly 49 repeat a tuple the session already ran — 35 because the
// tables re-measure Fig. 3's seven (TS, T1 and T32 on both platforms),
// and 14 because Fig. 9's P=1 and P=32 points of its seven curves are the
// tables' numaws T1 and T32 — and those 49 are answered by the cache.
// With the nine dag runs, the pipeline reports 124 runs and simulates 75.
// Every row and series equals a fresh session's, so a hit is exact. Jobs
// is 2, so under -race the pool's goroutines share the cache.
func TestSessionSimulatesEachTupleOnce(t *testing.T) {
	newSession := func() *Session {
		s, err := New(
			WithTopology("paper-4x8"),
			WithScale(ScaleSmall),
			WithBenchmarks("cg", "cilksort", "heat", "hull1", "hull2", "matmul", "matmul-z", "strassen", "strassen-z"),
			WithJobs(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := t.Context()
	s := newSession()
	var mu sync.Mutex
	runs, replayed := 0, 0
	count := func(r Run) {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if r.Replayed {
			replayed++
		}
	}
	var fig3 []string
	for _, b := range s.Benchmarks() {
		if b.Fig3 {
			fig3 = append(fig3, b.Name)
		}
	}
	fig3Rows, err := s.Each(ctx, count, fig3...)
	if err != nil {
		t.Fatal(err)
	}
	allRows, err := s.Each(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	opt := s.options()
	opt.OnRun = func(m harness.RunMeta) { count(Run{Replayed: m.Replayed}) }
	series, err := harness.MeasureScalability(ctx, s.specs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3) != 7 || len(series) != 7 {
		t.Fatalf("%d Fig. 3 benchmarks and %d Fig. 9 curves, want 7 and 7", len(fig3), len(series))
	}
	if want := 7*5 + 9*5 + 7*5; runs != want || replayed != 35+14 {
		t.Errorf("streamed %d runs with %d replayed, want %d with %d", runs, replayed, want, 35+14)
	}

	freshFig3, err := newSession().MeasureAll(ctx, fig3...)
	if err != nil {
		t.Fatal(err)
	}
	freshAll, err := newSession().MeasureAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	freshSeries, err := newSession().Scalability(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig3Rows, freshFig3) {
		t.Errorf("Fig. 3 rows differ from a fresh session's:\ncached: %+v\nfresh:  %+v", fig3Rows, freshFig3)
	}
	if !reflect.DeepEqual(allRows, freshAll) {
		t.Errorf("table rows differ from a fresh session's:\ncached: %+v\nfresh:  %+v", allRows, freshAll)
	}
	if !reflect.DeepEqual(series, freshSeries) {
		t.Errorf("Fig. 9 series differ from a fresh session's:\ncached: %+v\nfresh:  %+v", series, freshSeries)
	}
}
