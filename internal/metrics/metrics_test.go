package metrics

import (
	"strings"
	"testing"

	"repro/pkg/numaws/results"
)

func sampleRows() []results.Row {
	return []results.Row{
		{
			Name: "cilksort", Input: "1048576/4096", TS: 1000, P: 32,
			Cilk:   results.PlatformResult{T1: 1005, TP: 47, WP: 1540, SP: 10, IP: 30},
			NUMAWS: results.PlatformResult{T1: 1030, TP: 39, WP: 1210, SP: 15, IP: 20},
		},
		{
			Name: "heat", Input: "512x512", TS: 2000, P: 32,
			Cilk:   results.PlatformResult{T1: 1990, TP: 330, WP: 10430, SP: 26, IP: 71},
			NUMAWS: results.PlatformResult{T1: 1990, TP: 143, WP: 4478, SP: 10, IP: 45},
		},
	}
}

func TestPlatformResultRatios(t *testing.T) {
	r := results.PlatformResult{T1: 1070, TP: 107, WP: 2140}
	if got := r.SpawnOverhead(1000); got != 1.07 {
		t.Errorf("SpawnOverhead = %f, want 1.07", got)
	}
	if got := r.Scalability(); got != 10 {
		t.Errorf("Scalability = %f, want 10", got)
	}
	if got := r.WorkInflation(); got != 2 {
		t.Errorf("WorkInflation = %f, want 2", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	r := results.PlatformResult{T1: 100}
	if got := r.Scalability(); got != 0 {
		t.Errorf("Scalability with TP=0 = %f, want 0", got)
	}
	if got := r.SpawnOverhead(0); got != 0 {
		t.Errorf("SpawnOverhead with TS=0 = %f, want 0", got)
	}
}

func TestTable7Rendering(t *testing.T) {
	out := Table7(sampleRows())
	for _, want := range []string{
		"Fig. 7", "cilksort", "heat", "T32",
		"(1.00x)",  // cilksort Cilk spawn overhead 1005/1000
		"(21.38x)", // cilksort Cilk scalability 1005/47
		"(26.41x)", // cilksort NUMA-WS scalability 1030/39
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table7 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable8Rendering(t *testing.T) {
	out := Table8(sampleRows())
	for _, want := range []string{
		"Fig. 8", "W32", "S32", "I32",
		"(1.53x)", // cilksort Cilk inflation 1540/1005
		"(5.24x)", // heat Cilk inflation 10430/1990
		"(2.25x)", // heat NUMA-WS inflation 4478/1990
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table8 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Rendering(t *testing.T) {
	out := Fig3(sampleRows())
	for _, want := range []string{"Fig. 3", "normalized to TS", "P=32", "cilksort", "heat"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
	// heat P=1 bar: T1/TS = 1990/2000 = 0.99 or 1.00.
	if !strings.Contains(out, "0.99") && !strings.Contains(out, "1.00") {
		t.Errorf("Fig3 missing the heat P=1 bar:\n%s", out)
	}
}

func TestFig3SkipsZeroTS(t *testing.T) {
	rows := []results.Row{{Name: "broken", TS: 0, P: 32}}
	out := Fig3(rows)
	if strings.Contains(out, "broken") {
		t.Errorf("Fig3 rendered a zero-TS row:\n%s", out)
	}
}

func TestSeriesSpeedup(t *testing.T) {
	s := results.Series{Name: "cg", P: []int{1, 8, 32}, TP: []int64{3200, 400, 100}}
	sp := s.Speedup()
	want := []float64{1, 8, 32}
	for i := range want {
		if sp[i] != want[i] {
			t.Errorf("Speedup[%d] = %f, want %f", i, sp[i], want[i])
		}
	}
	empty := results.Series{}
	if got := empty.Speedup(); len(got) != 0 {
		t.Errorf("empty Speedup = %v, want empty", got)
	}
}

func TestFig9Rendering(t *testing.T) {
	series := []results.Series{
		{Name: "cg", P: []int{1, 8, 32}, TP: []int64{3200, 400, 100}},
		{Name: "heat", P: []int{1, 8, 32}, TP: []int64{1000, 200, 80}},
	}
	out := Fig9(series)
	for _, want := range []string{"Fig. 9", "P=1", "P=8", "P=32", "cg", "heat", "32.00", "12.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig9 output missing %q:\n%s", want, out)
		}
	}
	if got := Fig9(nil); !strings.Contains(got, "Fig. 9") {
		t.Errorf("Fig9(nil) = %q", got)
	}
}

func TestCycleFormatting(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{
		{532, "532"},
		{15300, "15.3k"},
		{12_500_000, "12.5M"},
		{73_000_000_000, "73.0G"},
	} {
		if got := cyc(tc.v); got != tc.want {
			t.Errorf("cyc(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
