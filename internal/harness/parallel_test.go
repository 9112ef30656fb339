package harness

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/pkg/numaws/results"
)

// TestOptionsZeroValuesMeanDefaults pins the Options zero-value contract:
// a zero field always means the documented default, and consequently a
// literal zero can never be expressed — fill remaps Seed: 0 to 1 and
// P: 0 to 32 even when the caller meant zero.
func TestOptionsZeroValuesMeanDefaults(t *testing.T) {
	f := Options{}.fill()
	if f.Topology == nil {
		t.Error("zero Topology should become the paper's machine")
	}
	if f.P != 32 {
		t.Errorf("zero P filled to %d, want 32", f.P)
	}
	// "The whole machine" really is the whole machine: no stale 32-worker
	// cap left over from the fixed-4x8 era on bigger topologies.
	if big := (Options{Topology: topology.Ring(8, 16)}).fill(); big.P != 128 {
		t.Errorf("zero P on an 8x16 machine filled to %d, want 128", big.P)
	}
	if f.Seed != 1 {
		t.Errorf("zero Seed filled to %d, want 1", f.Seed)
	}
	if f.Seeds != 1 {
		t.Errorf("zero Seeds filled to %d, want 1", f.Seeds)
	}
	if f.Jobs != 1 {
		t.Errorf("zero Jobs filled to %d, want 1 (serial)", f.Jobs)
	}
	if f.Verify || f.RecordDAG || f.FreshInputs {
		t.Error("zero booleans must stay false")
	}

	if f.Policy == nil || f.Policy.Name() != "numaws" {
		t.Errorf("zero Policy filled to %v, want numaws", f.Policy)
	}

	// Explicit non-zero values pass through untouched.
	top := topology.TwoSocket(4)
	o := Options{Topology: top, P: 8, Seed: 42, Seeds: 3, Jobs: 5, Verify: true, RecordDAG: true,
		Policy: sched.Cilk}
	if got := o.fill(); !reflect.DeepEqual(got, o) {
		t.Errorf("fill altered explicit options: %+v -> %+v", o, got)
	}

	// The flip side of the contract: Seed: 0 is indistinguishable from
	// the default. Callers must not rely on a literal zero seed.
	if got := (Options{Seed: 0}).fill().Seed; got != 1 {
		t.Errorf("Seed: 0 filled to %d; the contract says it means the default 1", got)
	}

	// Negative counts (reachable from unvalidated CLI flags) also mean
	// the default: the job decomposition allocates Seeds slots and must
	// never see a negative length.
	neg := Options{Seeds: -2, Jobs: -3}.fill()
	if neg.Seeds != 1 || neg.Jobs != 1 {
		t.Errorf("negative counts filled to Seeds=%d Jobs=%d, want 1, 1", neg.Seeds, neg.Jobs)
	}
}

// TestMeasureAllParallelMatchesSerial is the determinism guarantee of the
// tentpole: fanning the experiment sweep out over a worker pool must
// produce results identical to the serial path, down to the rendered
// table bytes.
func TestMeasureAllParallelMatchesSerial(t *testing.T) {
	specs := Specs(ScaleSmall)
	opt := Options{P: 16, Seeds: 2, Verify: true}

	optSerial := opt
	optSerial.Jobs = 1
	serial, err := MeasureAll(t.Context(), specs, optSerial)
	if err != nil {
		t.Fatal(err)
	}
	optPar := opt
	optPar.Jobs = 8
	parallel, err := MeasureAll(t.Context(), specs, optPar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("rows differ between Jobs=1 and Jobs=8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for _, render := range []func([]results.Row) string{metrics.Table7, metrics.Table8, metrics.Fig3} {
		if s, p := render(serial), render(parallel); s != p {
			t.Errorf("rendered table differs between Jobs=1 and Jobs=8:\n--- serial\n%s--- parallel\n%s", s, p)
		}
	}
}

// TestMeasureScalabilityParallelMatchesSerial is the same guarantee for
// the Fig. 9 sweep.
func TestMeasureScalabilityParallelMatchesSerial(t *testing.T) {
	specs := Specs(ScaleSmall)
	points := []int{1, 8}
	opt := Options{Seeds: 2}

	optSerial := opt
	optSerial.Jobs = 1
	serial, err := MeasureScalability(t.Context(), specs, optSerial, points)
	if err != nil {
		t.Fatal(err)
	}
	optPar := opt
	optPar.Jobs = 8
	parallel, err := MeasureScalability(t.Context(), specs, optPar, points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("series differ between Jobs=1 and Jobs=8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if s, p := metrics.Fig9(serial), metrics.Fig9(parallel); s != p {
		t.Errorf("rendered Fig. 9 differs:\n--- serial\n%s--- parallel\n%s", s, p)
	}
}

// TestMeasureParallelMatchesSerial covers the single-spec entry point.
func TestMeasureParallelMatchesSerial(t *testing.T) {
	spec := specByName(t, "heat")
	serial, err := Measure(t.Context(), spec, Options{P: 8, Seeds: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Measure(t.Context(), spec, Options{P: 8, Seeds: 2, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("row differs between Jobs=1 and Jobs=4:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// failingWorkload wraps a real workload but always fails verification.
type failingWorkload struct{ workloads.Workload }

func (failingWorkload) Verify() error { return errors.New("forced verification failure") }

// TestMeasureAllErrorSurfaces checks the containment contract for
// verification failures on both the serial and the parallel path: the
// failing spec folds into a typed error row, the healthy specs' rows are
// measured normally, and MeasureAll itself succeeds.
func TestMeasureAllErrorSurfaces(t *testing.T) {
	specs := Specs(ScaleSmall)[:3]
	// Overriding Make requires clearing the spec's pool identity: the pool
	// keys on the registry entry, not the builder, and would otherwise hand
	// back instances the original builder constructed.
	bad := workloads.Unpooled(specs[1])
	make1 := bad.Make
	bad.Make = func(aware bool) workloads.Workload {
		return failingWorkload{make1(aware)}
	}
	specs[1] = bad
	for _, jobs := range []int{1, 8} {
		rows, err := MeasureAll(t.Context(), specs, Options{P: 8, Verify: true, Jobs: jobs})
		if err != nil {
			t.Fatalf("Jobs=%d: MeasureAll must contain run failures, got %v", jobs, err)
		}
		if len(rows) != 3 {
			t.Fatalf("Jobs=%d: got %d rows, want 3", jobs, len(rows))
		}
		failed := rows[1]
		if failed.Err == nil {
			t.Fatalf("Jobs=%d: failing spec's row has no error: %+v", jobs, failed)
		}
		if failed.Err.Kind != "verify" || !strings.Contains(failed.Err.Message, "forced verification failure") {
			t.Errorf("Jobs=%d: error row = %+v, want kind verify mentioning the forced failure", jobs, failed.Err)
		}
		if failed.Name != specs[1].Name || failed.TS != 0 {
			t.Errorf("Jobs=%d: error row should keep identity and zero measurements: %+v", jobs, failed)
		}
		for _, i := range []int{0, 2} {
			if rows[i].Err != nil {
				t.Errorf("Jobs=%d: healthy spec %s got an error row: %v", jobs, rows[i].Name, rows[i].Err)
			}
			if rows[i].TS <= 0 || rows[i].Cilk.T1 <= 0 {
				t.Errorf("Jobs=%d: healthy spec %s not measured: %+v", jobs, rows[i].Name, rows[i])
			}
		}
	}
}

// TestMeasureAllParallelSpeedup demonstrates the point of the worker
// pool: on a multi-core host, the parallel sweep must finish at least
// twice as fast as the serial one. Hosts with fewer than eight CPUs skip:
// below that there is not enough headroom to assert 2x without flaking
// on shared runners (GitHub's report 4 vCPUs), while at eight the
// expected speedup (~6x) clears the bar with a wide margin.
func TestMeasureAllParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	if exec.DefaultJobs() < 8 {
		t.Skipf("host has %d CPUs; speedup demonstration needs >= 8", exec.DefaultJobs())
	}
	specs := Specs(ScaleSmall)
	opt := Options{P: 16, Seeds: 2}

	optSerial := opt
	optSerial.Jobs = 1
	t0 := time.Now()
	if _, err := MeasureAll(t.Context(), specs, optSerial); err != nil {
		t.Fatal(err)
	}
	serialDur := time.Since(t0)

	optPar := opt
	optPar.Jobs = exec.DefaultJobs()
	t0 = time.Now()
	if _, err := MeasureAll(t.Context(), specs, optPar); err != nil {
		t.Fatal(err)
	}
	parallelDur := time.Since(t0)

	speedup := float64(serialDur) / float64(parallelDur)
	t.Logf("MeasureAll at ScaleSmall: serial %v, %d jobs %v (%.2fx)",
		serialDur, optPar.Jobs, parallelDur, speedup)
	if speedup < 2 {
		t.Errorf("parallel sweep only %.2fx faster than serial, want >= 2x on a %d-CPU host",
			speedup, exec.DefaultJobs())
	}
}

// TestMeasureAllStreamsEveryRun pins the streaming contract: OnRun receives
// exactly one RunMeta per simulation of the grid — TS plus (T1 and Seeds
// TP runs) per platform, for every spec — with valid times, and streaming
// does not perturb the returned rows.
func TestMeasureAllStreamsEveryRun(t *testing.T) {
	var specs []Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "cilksort" || s.Name == "heat" {
			specs = append(specs, s)
		}
	}
	opt := Options{P: 8, Seeds: 2, Jobs: exec.DefaultJobs()}
	var mu sync.Mutex
	var metas []RunMeta
	streamOpt := opt
	streamOpt.OnRun = func(m RunMeta) {
		mu.Lock()
		metas = append(metas, m)
		mu.Unlock()
	}
	rows, err := MeasureAll(t.Context(), specs, streamOpt)
	if err != nil {
		t.Fatal(err)
	}
	perSpec := 1 + 2*(1+opt.Seeds) // TS + per-platform T1 and seed runs
	if want := len(specs) * perSpec; len(metas) != want {
		t.Fatalf("streamed %d runs, want %d", len(metas), want)
	}
	serial, t1s, tps := 0, 0, 0
	for _, m := range metas {
		if m.Time <= 0 {
			t.Errorf("streamed run %+v has non-positive time", m)
		}
		switch {
		case m.Serial:
			serial++
			if m.Policy != "serial" || m.P != 1 {
				t.Errorf("serial run meta wrong: %+v", m)
			}
		case m.P == 1:
			t1s++
		case m.P == opt.P:
			tps++
		default:
			t.Errorf("streamed run at unexpected P: %+v", m)
		}
		if !m.Serial && m.Policy != "cilk" && m.Policy != "numaws" {
			t.Errorf("streamed run under unexpected policy: %+v", m)
		}
	}
	if serial != len(specs) || t1s != 2*len(specs) || tps != 2*opt.Seeds*len(specs) {
		t.Errorf("streamed run mix serial=%d t1=%d tp=%d, want %d/%d/%d",
			serial, t1s, tps, len(specs), 2*len(specs), 2*opt.Seeds*len(specs))
	}
	// Identical rows with and without streaming.
	plain, err := MeasureAll(t.Context(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, plain) {
		t.Errorf("streaming changed the measured rows:\n%+v\n%+v", rows, plain)
	}
}
