package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/pkg/numaws/results"
)

func TestSweepPoints(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int
	}{
		{"paper-4x8", []int{1, 8, 16, 24, 32}}, // exactly the paper's Fig. 9 axis
		{"uniform", []int{1, 8, 16, 24, 32}},
		{"2x4", []int{1, 2, 4, 6, 8}},
		{"1x2", []int{1, 2}}, // quarter points collapse on tiny machines
		{"1x1", []int{1}},
	} {
		top, err := topology.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := SweepPoints(top); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SweepPoints(%s) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestMachines(t *testing.T) {
	ms, err := Machines([]string{"paper-4x8", "2x4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "paper-4x8" || ms[1].Top.Cores() != 8 {
		t.Errorf("Machines parsed wrong: %+v", ms)
	}
	for _, bad := range [][]string{nil, {"nope"}, {"2x4", "2x4"}} {
		if _, err := Machines(bad); err == nil {
			t.Errorf("Machines(%v) succeeded, want error", bad)
		}
	}
}

// TestMeasureTopologiesShape runs a small sweep grid and checks the result
// layout: machine-major ordering, per-machine point axes, speedup base 1.
func TestMeasureTopologiesShape(t *testing.T) {
	var specs []Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "cilksort" || s.Name == "heat" {
			specs = append(specs, s)
		}
	}
	machines, err := Machines([]string{"2x4", "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Verify: true, Jobs: exec.DefaultJobs()}
	sweeps, err := MeasureTopologies(t.Context(), specs, machines, opt, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 4 {
		t.Fatalf("%d sweeps, want 4 (2 machines x 2 specs)", len(sweeps))
	}
	if sweeps[0].Topology != "2x4" || sweeps[0].Bench != "cilksort" ||
		sweeps[3].Topology != "uniform" || sweeps[3].Bench != "heat" {
		t.Errorf("sweep order wrong: %+v", sweeps)
	}
	for _, s := range sweeps {
		if !reflect.DeepEqual(s.P, []int{1, 4, 8}) {
			t.Errorf("%s@%s axis = %v, want [1 4 8]", s.Bench, s.Topology, s.P)
		}
		if sp := s.Speedup(); sp[0] != 1 {
			t.Errorf("%s@%s speedup base = %v, want 1", s.Bench, s.Topology, sp[0])
		}
		if s.TP[0] <= 0 {
			t.Errorf("%s@%s has non-positive T1", s.Bench, s.Topology)
		}
	}
	// Points beyond a machine's core count are clipped, and 1 is always
	// re-added as the speedup base.
	clipped, err := MeasureTopologies(t.Context(), specs[:1], machines[:1], opt, []int{4, 99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clipped[0].P, []int{1, 4}) {
		t.Errorf("clipped axis = %v, want [1 4]", clipped[0].P)
	}
}

// TestPaperPresetByteIdentical pins the refactor's compatibility contract:
// the paper-4x8 preset is the default machine, so measurements taken with an
// explicit preset must render the very same table bytes as measurements
// taken with the nil-topology default — Table 7, Table 8 and the Fig. 9
// curve alike.
func TestPaperPresetByteIdentical(t *testing.T) {
	var specs []Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "cilksort" || s.Name == "heat" || s.Name == "cg" {
			specs = append(specs, s)
		}
	}
	paper, err := topology.Parse("paper-4x8")
	if err != nil {
		t.Fatal(err)
	}
	def := Options{P: 8, Verify: true, Jobs: exec.DefaultJobs()}
	pre := def
	pre.Topology = paper

	defRows, err := MeasureAll(t.Context(), specs, def)
	if err != nil {
		t.Fatal(err)
	}
	preRows, err := MeasureAll(t.Context(), specs, pre)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := metrics.Table7(defRows), metrics.Table7(preRows); a != b {
		t.Errorf("Table 7 differs under the paper-4x8 preset:\ndefault:\n%s\npreset:\n%s", a, b)
	}
	if a, b := metrics.Table8(defRows), metrics.Table8(preRows); a != b {
		t.Errorf("Table 8 differs under the paper-4x8 preset:\ndefault:\n%s\npreset:\n%s", a, b)
	}

	points := []int{1, 4, 8}
	defSeries, err := MeasureScalability(t.Context(), specs, def, points)
	if err != nil {
		t.Fatal(err)
	}
	preSeries, err := MeasureScalability(t.Context(), specs, pre, points)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := metrics.Fig9(defSeries), metrics.Fig9(preSeries); a != b {
		t.Errorf("Fig. 9 differs under the paper-4x8 preset:\ndefault:\n%s\npreset:\n%s", a, b)
	}

	// And the default Fig. 9 axis on the default machine is still the
	// paper's {1, 8, 16, 24, 32}.
	if got := SweepPoints(paper); !reflect.DeepEqual(got, Fig9Points) {
		t.Errorf("SweepPoints(paper-4x8) = %v, want Fig9Points %v", got, Fig9Points)
	}
}

// TestSweepTableRendering checks the sweep's human-readable table groups by
// topology and carries every benchmark row.
func TestSweepTableRendering(t *testing.T) {
	sweeps := []results.SweepCurve{
		{Bench: "heat", Topology: "paper-4x8", Sockets: 4, Cores: 32, P: []int{1, 8}, TP: []int64{100, 20}},
		{Bench: "cg", Topology: "paper-4x8", Sockets: 4, Cores: 32, P: []int{1, 8}, TP: []int64{90, 30}},
		{Bench: "heat", Topology: "2x4", Sockets: 2, Cores: 8, P: []int{1, 8}, TP: []int64{100, 25}},
	}
	out := metrics.SweepTable(sweeps)
	for _, want := range []string{"paper-4x8 (4 sockets x 8 cores)", "2x4 (2 sockets x 4 cores)", "P=8", "5.00", "3.00", "4.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "heat") != 2 || strings.Count(out, "cg") != 1 {
		t.Errorf("sweep table rows wrong:\n%s", out)
	}
}
