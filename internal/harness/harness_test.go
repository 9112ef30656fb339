package harness

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// specByName resolves one benchmark of the registered small-scale suite.
func specByName(t testing.TB, name string) Spec {
	t.Helper()
	for _, s := range Specs(ScaleSmall) {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no spec named %q", name)
	return Spec{}
}

func TestSpecsInventory(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScaleFull} {
		specs := Specs(scale)
		// The registered suite: the paper's nine plus the five Cilk-suite
		// additions (fib, nqueens, fft, lu, rectmul).
		if len(specs) != 14 {
			t.Fatalf("scale %d: %d specs, want 14", scale, len(specs))
		}
		want := map[string]bool{
			"cg": true, "cilksort": true, "heat": true, "hull1": true, "hull2": true,
			"matmul": true, "matmul-z": true, "strassen": true, "strassen-z": true,
			"fib": true, "nqueens": true, "fft": true, "lu": true, "rectmul": true,
		}
		fig3 := 0
		fig9 := 0
		for _, s := range specs {
			if !want[s.Name] {
				t.Errorf("unexpected spec %q", s.Name)
			}
			delete(want, s.Name)
			if s.InFig3 {
				fig3++
			}
			if s.Fig9Name != "" {
				fig9++
			}
			if got := s.Make(false).Name(); got != s.Name {
				t.Errorf("spec %q builds workload named %q", s.Name, got)
			}
		}
		if len(want) != 0 {
			t.Errorf("missing specs: %v", want)
		}
		// The paper's seven Fig. 3 benchmarks plus the five additions.
		if fig3 != 12 {
			t.Errorf("%d Fig. 3 benchmarks, want 12", fig3)
		}
		// The paper's seven Fig. 9 curves plus the five additions.
		if fig9 != 12 {
			t.Errorf("%d Fig. 9 series, want 12", fig9)
		}
	}
}

func TestRunOneAndSerial(t *testing.T) {
	spec := specByName(t, "cilksort")
	ts, err := RunSerial(t.Context(), spec, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOne(t.Context(), spec, sched.NUMAWS, Options{P: 16, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 || ts.Time <= 0 {
		t.Error("non-positive times")
	}
	if rep.Time >= ts.Time {
		t.Errorf("P=16 time %d not faster than serial %d", rep.Time, ts.Time)
	}
	if rep.Sched == nil {
		t.Error("parallel run missing scheduler stats")
	}
}

func TestMeasureProducesConsistentRow(t *testing.T) {
	spec := specByName(t, "heat")
	rows, err := MeasureAll(t.Context(), []Spec{spec}, Options{P: 16, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Name != "heat" || row.P != 16 {
		t.Errorf("row identity wrong: %+v", row)
	}
	if row.TS <= 0 || row.Cilk.T1 <= 0 || row.NUMAWS.T1 <= 0 {
		t.Error("missing measurements")
	}
	// Work efficiency: T1 within a few percent of TS on both platforms.
	for _, pr := range []struct {
		name string
		t1   int64
	}{{"cilk", row.Cilk.T1}, {"numa-ws", row.NUMAWS.T1}} {
		ratio := float64(pr.t1) / float64(row.TS)
		if ratio < 0.99 || ratio > 1.10 {
			t.Errorf("%s T1/TS = %.3f, want about 1", pr.name, ratio)
		}
	}
	// TP must beat T1 at P=16.
	if row.Cilk.TP >= row.Cilk.T1 || row.NUMAWS.TP >= row.NUMAWS.T1 {
		t.Error("no parallel speedup at P=16")
	}
	// Work inflation should not be below 1 (parallel work cannot shrink).
	if row.Cilk.WorkInflation() < 0.99 || row.NUMAWS.WorkInflation() < 0.99 {
		t.Errorf("impossible inflation: cilk %.2f, nws %.2f",
			row.Cilk.WorkInflation(), row.NUMAWS.WorkInflation())
	}
}

func TestSeedAveraging(t *testing.T) {
	spec := specByName(t, "heat")
	one, err := MeasureAll(t.Context(), []Spec{spec}, Options{P: 8, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := MeasureAll(t.Context(), []Spec{spec}, Options{P: 8, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Averaged TP should be in the same ballpark as a single seed (within
	// 50%); it mainly must not be zero or wildly off.
	ratio := float64(avg[0].NUMAWS.TP) / float64(one[0].NUMAWS.TP)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("averaged TP %d vs single-seed %d: ratio %.2f", avg[0].NUMAWS.TP, one[0].NUMAWS.TP, ratio)
	}
}

func TestMeasureScalabilityShape(t *testing.T) {
	specs := Specs(ScaleSmall)
	// Only cilksort (the small-scale heat has just one band per worker at
	// P=16, which makes its curve noisy), to keep the test fast.
	var sort []Spec
	for _, s := range specs {
		if s.Name == "cilksort" {
			sort = append(sort, s)
		}
	}
	series, err := MeasureScalability(t.Context(), sort, Options{}, []int{1, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("%d series, want 1", len(series))
	}
	sp := series[0].Speedup()
	if sp[0] != 1 {
		t.Errorf("speedup at P=1 = %f, want 1", sp[0])
	}
	if sp[1] <= 1 || sp[2] <= sp[1]*0.8 {
		t.Errorf("speedup not increasing sensibly: %v", sp)
	}
}

func TestFig9PointsMatchPaper(t *testing.T) {
	want := []int{1, 8, 16, 24, 32}
	if len(Fig9Points) != len(want) {
		t.Fatalf("Fig9Points = %v, want %v", Fig9Points, want)
	}
	for i := range want {
		if Fig9Points[i] != want[i] {
			t.Fatalf("Fig9Points = %v, want %v", Fig9Points, want)
		}
	}
}

func TestOptionsCustomTopology(t *testing.T) {
	spec := specByName(t, "heat")
	rep, err := RunOne(t.Context(), spec, sched.NUMAWS, Options{
		Topology: topology.TwoSocket(4),
		P:        8,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 8 {
		t.Errorf("workers = %d, want 8", rep.Workers)
	}
}

func TestDeterministicMeasurement(t *testing.T) {
	spec := specByName(t, "cg")
	a, err := RunOne(t.Context(), spec, sched.NUMAWS, Options{P: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(t.Context(), spec, sched.NUMAWS, Options{P: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Errorf("same-seed measurements differ: %d vs %d", a.Time, b.Time)
	}
}
