package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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
	if f.Verify || f.FreshInputs {
		t.Error("zero booleans must stay false")
	}

	if f.Policy == nil || f.Policy.Name() != "numaws" {
		t.Errorf("zero Policy filled to %v, want numaws", f.Policy)
	}

	// Explicit non-zero values pass through untouched.
	top := topology.TwoSocket(4)
	o := Options{Topology: top, P: 8, Seed: 42, Seeds: 3, Jobs: 5, Verify: true,
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
	// A Spec literal, not a modified registry spec: the pool keys on the
	// registry entry, not the builder, so a registry spec with an
	// overridden Make would be handed instances the original builder
	// constructed. A literal has no pool identity and is never pooled.
	make1 := specs[1].Make
	specs[1] = workloads.Spec{Name: specs[1].Name, Input: specs[1].Input, Make: func(aware bool) workloads.Workload {
		return failingWorkload{make1(aware)}
	}}
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

// TestGridsStreamEveryRun pins the streaming contract of every grid
// protocol: OnRun receives exactly one RunMeta per simulation of the grid,
// named by the run's policy, P, seed, serial and baseline flags, with a
// valid time, and streaming does not perturb the returned results. A
// tournament or topology sweep re-run on a warm cache streams every run
// as Replayed.
func TestGridsStreamEveryRun(t *testing.T) {
	var specs []Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "cilksort" || s.Name == "heat" {
			specs = append(specs, s)
		}
	}
	machines, err := Machines([]string{"2x4"})
	if err != nil {
		t.Fatal(err)
	}
	pols := []sched.Policy{sched.Cilk, sched.NUMAWS}
	opt := Options{P: 8, Seeds: 2, Jobs: exec.DefaultJobs()}
	warm := newMemCache()
	tournament := func(c ResultCache) func(Options) (any, error) {
		return func(o Options) (any, error) { return Tournament(t.Context(), specs, machines, pols, c, o) }
	}
	if _, err := tournament(warm)(opt); err != nil {
		t.Fatal(err)
	}
	warmSweep := newMemCache()
	topologies := func(c ResultCache) func(Options) (any, error) {
		return func(o Options) (any, error) {
			o.Cache = c
			return MeasureTopologies(t.Context(), specs, machines, o, []int{4})
		}
	}
	if _, err := topologies(warmSweep)(opt); err != nil {
		t.Fatal(err)
	}

	// want lists the expected runs, Time and Replayed aside.
	var all, sweep, tour []RunMeta
	for _, s := range specs {
		all = append(all, RunMeta{Bench: s.Name, Policy: "serial", P: 1, Seed: 1, Serial: true})
		for _, pol := range pols {
			baseline := pol == sched.Cilk
			all = append(all, RunMeta{Bench: s.Name, Policy: pol.Name(), P: 1, Seed: 1, Baseline: baseline})
			for seed := int64(1); seed <= 2; seed++ {
				all = append(all, RunMeta{Bench: s.Name, Policy: pol.Name(), P: 8, Seed: seed, Baseline: baseline})
				tour = append(tour, RunMeta{Bench: s.Name, Policy: pol.Name(), P: 8, Seed: seed})
			}
		}
		for _, p := range []int{1, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				sweep = append(sweep, RunMeta{Bench: s.Name, Policy: "numaws", P: p, Seed: seed})
			}
		}
	}
	cases := []struct {
		name     string
		run      func(Options) (any, error)
		want     []RunMeta
		replayed bool
	}{
		{"MeasureAll", func(o Options) (any, error) { return MeasureAll(t.Context(), specs, o) }, all, false},
		{"MeasureTopologies", topologies(nil), sweep, false},
		{"MeasureTopologies-warm", topologies(warmSweep), sweep, true},
		{"Tournament", tournament(nil), tour, false},
		{"Tournament-warm", tournament(warm), tour, true},
	}
	key := func(m RunMeta) string { return fmt.Sprintf("%+v", m) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []RunMeta
			streamOpt := opt
			streamOpt.OnRun = func(m RunMeta) {
				mu.Lock()
				got = append(got, m)
				mu.Unlock()
			}
			streamed, err := tc.run(streamOpt)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range got {
				if m.Time <= 0 {
					t.Errorf("streamed run %+v has non-positive time", m)
				}
				if m.Replayed != tc.replayed {
					t.Errorf("streamed run %+v: Replayed = %t, want %t", m, m.Replayed, tc.replayed)
				}
				got[i].Time, got[i].Replayed = 0, false
			}
			want := slices.Clone(tc.want)
			slices.SortFunc(got, func(a, b RunMeta) int { return strings.Compare(key(a), key(b)) })
			slices.SortFunc(want, func(a, b RunMeta) int { return strings.Compare(key(a), key(b)) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streamed %d runs, want %d:\n got  %+v\n want %+v", len(got), len(want), got, want)
			}
			plain, err := tc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, plain) {
				t.Errorf("streaming changed the results:\n%+v\n%+v", streamed, plain)
			}
		})
	}
}

// TestGridReportsHitsFirst runs a topology sweep over a partly warm
// cache: every run the cache held streams through OnRun before any run
// that simulates, at Jobs 1 and above, and the sweep equals a cold one.
func TestGridReportsHitsFirst(t *testing.T) {
	var specs []Spec
	for _, s := range Specs(ScaleSmall) {
		if s.Name == "fib" || s.Name == "heat" {
			specs = append(specs, s)
		}
	}
	machines, err := Machines([]string{"2x4"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MeasureTopologies(t.Context(), specs, machines, Options{}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			opt := Options{Jobs: jobs, Cache: newMemCache()}
			// The sweep always measures P 1, so this stores P 1 and 4.
			if _, err := MeasureTopologies(t.Context(), specs, machines, opt, []int{4}); err != nil {
				t.Fatal(err)
			}
			var got []RunMeta
			opt.OnRun = func(m RunMeta) { got = append(got, m) } // calls are serialized
			sweeps, err := MeasureTopologies(t.Context(), specs, machines, opt, []int{1, 2, 4, 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sweeps, cold) {
				t.Errorf("partly warm sweep %+v, want the cold %+v", sweeps, cold)
			}
			if len(got) != 8 {
				t.Fatalf("streamed %d runs, want 8", len(got))
			}
			for i, m := range got {
				if want := i < 4; m.Replayed != want || (m.P == 1 || m.P == 4) != want {
					t.Errorf("run %d streamed %+v; want the 4 replayed runs (P 1 and 4) first", i, m)
				}
			}
		})
	}
}
