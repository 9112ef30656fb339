package harness

// Tests for the failure-containment layer: panic isolation into typed
// error rows, quarantine of pooled resources, run deadlines with
// deterministic retry, the single-flight reference cache's error path,
// and the crash-safe journal's resume protocol. Every fault here is
// injected through internal/faultinject, so the misbehavior is a pure
// function of the armed plan and the run key — the suite is deterministic
// and runs under -race in CI.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// gridOpts is the small grid configuration the containment tests share.
func gridOpts() Options {
	return Options{P: 4, Seeds: 1, Jobs: 4, Verify: true}
}

// TestGridContainsInjectedPanic is the tentpole containment test: a grid
// in which every run of one benchmark panics must complete every other
// benchmark's row, report exactly one typed error row, quarantine the
// panicking runs' pooled inputs, and — after disarming — produce rows
// byte-identical to a clean grid, proving no quarantined instance was
// ever handed back.
func TestGridContainsInjectedPanic(t *testing.T) {
	specs := Specs(ScaleSmall)[:3]
	victim := specs[1].Name
	opt := gridOpts()
	ctx := t.Context()

	workloads.FlushPools()
	clean, err := MeasureAll(ctx, specs, opt)
	if err != nil {
		t.Fatalf("clean grid: %v", err)
	}

	workloads.ResetPoolCounters()
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: victim},
		Kind:   faultinject.PanicAtTask,
		N:      1,
	})
	defer faultinject.Disarm()
	rows, err := MeasureAll(ctx, specs, opt)
	if err != nil {
		t.Fatalf("injected grid must contain the panic, got %v", err)
	}
	var failed int
	for i, row := range rows {
		if row.Name == victim {
			if row.Err == nil {
				t.Fatalf("victim %s has no error row: %+v", victim, row)
			}
			failed++
			if row.Err.Kind != "panic" || !strings.Contains(row.Err.Message, "injected panic") {
				t.Errorf("error row = %+v, want kind panic mentioning the injection", row.Err)
			}
			// Lowest submission index wins: the victim's TS reference was
			// memoized by the clean grid (so its serial run never
			// re-simulates and never trips), which makes the baseline T1
			// run the first failing submission — deterministically, no
			// matter how pool workers raced.
			if row.Err.Policy != sched.Cilk.Name() || row.Err.P != 1 {
				t.Errorf("reported failure should be the first-submitted failing run (baseline T1): %+v", row.Err)
			}
			continue
		}
		if row.Err != nil {
			t.Errorf("healthy spec %s got an error row: %v", row.Name, row.Err)
		}
		if !reflect.DeepEqual(row, clean[i]) {
			t.Errorf("healthy spec %s's row changed under injection:\nclean:    %+v\ninjected: %+v", row.Name, clean[i], row)
		}
	}
	if failed != 1 {
		t.Fatalf("got %d error rows, want exactly 1", failed)
	}
	if _, _, _, quarantined := workloads.PoolCounters(); quarantined == 0 {
		t.Error("panicking runs quarantined no pooled inputs")
	}

	// The recovery grid: with the fault disarmed, the pool must rebuild
	// what was quarantined and the rows must match the clean grid exactly —
	// a poisoned (mid-mutation) instance handed back would fail
	// verification or change a measurement.
	faultinject.Disarm()
	again, err := MeasureAll(ctx, specs, opt)
	if err != nil {
		t.Fatalf("recovery grid: %v", err)
	}
	if !reflect.DeepEqual(again, clean) {
		t.Errorf("recovery grid differs from clean grid:\nclean:    %+v\nrecovery: %+v", clean, again)
	}
}

// TestInjectionTargetsExactRun pins the precision of the fault targeting:
// a plan keyed to one (bench, policy, P, seed, mode) tuple fails exactly
// that run, and the error row carries the failing run's identity.
func TestInjectionTargetsExactRun(t *testing.T) {
	specs := Specs(ScaleSmall)[:2]
	opt := gridOpts()
	opt.Seeds = 2
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{
			Bench:  specs[0].Name,
			Policy: sched.NUMAWS.Name(),
			P:      opt.P,
			Seed:   2,
			Mode:   faultinject.ParallelOnly,
		},
		Kind: faultinject.PanicAtTask,
		N:    3,
	})
	defer faultinject.Disarm()
	rows, err := MeasureAll(t.Context(), specs, opt)
	if err != nil {
		t.Fatalf("MeasureAll: %v", err)
	}
	re := rows[0].Err
	if re == nil {
		t.Fatalf("targeted spec has no error row: %+v", rows[0])
	}
	if re.Policy != sched.NUMAWS.Name() || re.P != opt.P || re.Seed != 2 {
		t.Errorf("error row identifies the wrong run: %+v, want numaws P=%d seed=2", re, opt.P)
	}
	if rows[1].Err != nil {
		t.Errorf("untargeted spec got an error row: %v", rows[1].Err)
	}
}

// TestPanicIsNeverRetried pins the deterministic-failure half of the retry
// policy: a panicking run fails on its first attempt even with a generous
// retry budget, because re-running a deterministic simulator reproduces
// the panic byte for byte.
func TestPanicIsNeverRetried(t *testing.T) {
	spec := specByName(t, "heat")
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.PanicAtTask,
		N:      0,
	})
	defer faultinject.Disarm()
	opt := Options{P: 4, Verify: true, Retries: 3}
	_, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Kind != KindPanic || re.Transient() {
		t.Errorf("kind = %v (transient %t), want non-transient panic", re.Kind, re.Transient())
	}
	if re.Attempts != 1 {
		t.Errorf("panic was attempted %d times, want 1", re.Attempts)
	}
	if len(re.Stack) == 0 {
		t.Error("panic RunError carries no stack")
	}
}

// TestRunTracedContainsInjectedPanic pins RunTraced's contract: a panic
// inside the traced run comes back as a *RunError of KindPanic with the
// run's workload instance quarantined, and is never retried — the fault
// trips once and the budget allows three retries, so a retry would have
// succeeded.
func TestRunTracedContainsInjectedPanic(t *testing.T) {
	spec := specByName(t, "heat")
	opt := Options{P: 4, Verify: true, Retries: 3}
	workloads.ResetPoolCounters()
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.PanicAtTask,
		N:      0,
		Trips:  1,
	})
	defer faultinject.Disarm()
	rep, tl, err := RunTraced(t.Context(), spec, sched.NUMAWS, opt)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Kind != KindPanic || !strings.Contains(re.Error(), "injected panic") {
		t.Errorf("RunError = %v, want kind panic mentioning the injection", re)
	}
	if rep != nil || tl != nil {
		t.Errorf("failed traced run returned a report (%v) or a timeline (%v)", rep, tl)
	}
	if _, _, _, quarantined := workloads.PoolCounters(); quarantined != 1 {
		t.Errorf("quarantined %d workload instances, want 1", quarantined)
	}

	// The trip budget is spent: the same call now traces normally.
	rep, tl, err = RunTraced(t.Context(), spec, sched.NUMAWS, opt)
	if err != nil || rep == nil || tl == nil {
		t.Fatalf("traced run after the fault: rep %v, timeline %v, err %v", rep, tl, err)
	}
}

// TestRunTimeoutClassifiesHangAsTransient: a wedged-but-live run (endless
// spawn loop) is interrupted by the per-run deadline and classified as the
// retryable failure it is.
func TestRunTimeoutClassifiesHangAsTransient(t *testing.T) {
	spec := specByName(t, "heat")
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.HangAtTask,
		N:      1,
	})
	defer faultinject.Disarm()
	opt := Options{P: 4, RunTimeout: 50 * time.Millisecond}
	_, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Kind != KindTimeout || !re.Transient() {
		t.Errorf("kind = %v (transient %t), want transient timeout", re.Kind, re.Transient())
	}
	if !errors.Is(err, sched.ErrInterrupted) {
		t.Errorf("timeout RunError should wrap the engine interrupt, got %v", err)
	}
}

// TestRetriedRunIsByteIdentical is the determinism contract of the retry
// loop: a run that hangs once (Trips: 1) and succeeds on its second
// attempt measures exactly what an uninjected run measures, because the
// retry checked out fresh resources.
func TestRetriedRunIsByteIdentical(t *testing.T) {
	spec := specByName(t, "heat")
	opt := Options{P: 4, Verify: true}
	clean, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.HangAtTask,
		N:      1,
		Trips:  1,
	})
	defer faultinject.Disarm()
	// The hung attempt pays the full deadline, so keep it small — but the
	// clean retry must finish inside it even under the race detector
	// (~100ms for this run), so not too small.
	opt.RunTimeout = 2 * time.Second
	opt.Retries = 1
	retried, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	if resultOf(clean) != resultOf(retried) {
		t.Errorf("retried run differs from clean run:\nclean:   %+v\nretried: %+v", resultOf(clean), resultOf(retried))
	}

	// With no retry budget the same one-trip hang is a hard failure with
	// exactly one attempt on record.
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.HangAtTask,
		N:      1,
		Trips:  1,
	})
	opt.Retries = 0
	_, err = RunOne(t.Context(), spec, sched.NUMAWS, opt)
	var re *RunError
	if !errors.As(err, &re) || re.Kind != KindTimeout || re.Attempts != 1 {
		t.Errorf("budgetless hang: err = %v, want one-attempt timeout RunError", err)
	}
}

// TestRefCacheNotPoisonedByPanic pins the single-flight error path of the
// memoized serial reference: a panicking TS run surfaces as an error
// without caching anything, the quarantined reference input is never
// handed back, and the next caller recomputes successfully.
func TestRefCacheNotPoisonedByPanic(t *testing.T) {
	workloads.FlushPools()
	workloads.ResetPoolCounters()
	spec := specByName(t, "lu")
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name, Mode: faultinject.SerialOnly},
		Kind:   faultinject.PanicAtTask,
		N:      0,
		Trips:  1,
	})
	defer faultinject.Disarm()
	opt := Options{Verify: true}
	_, err := RunSerial(t.Context(), spec, opt)
	var re *RunError
	if !errors.As(err, &re) || re.Kind != KindPanic || !re.Key.Serial {
		t.Fatalf("err = %v, want serial panic RunError", err)
	}
	if _, _, _, quarantined := workloads.PoolCounters(); quarantined != 1 {
		t.Errorf("failed reference run quarantined %d instances, want 1", quarantined)
	}
	rep, err := RunSerial(t.Context(), spec, opt)
	if err != nil {
		t.Fatalf("reference recompute after contained panic: %v", err)
	}
	if rep.Time <= 0 {
		t.Errorf("recomputed reference is empty: %+v", rep)
	}
	built, pooled, _, _ := workloads.PoolCounters()
	if pooled != 0 {
		t.Errorf("quarantined reference input was handed back (%d reuses)", pooled)
	}
	if built != 2 {
		t.Errorf("expected a fresh second instance (2 built), got %d", built)
	}
	// The successful recompute is memoized: a third call must hit the memo,
	// not re-simulate.
	rep2, err := RunSerial(t.Context(), spec, opt)
	if err != nil {
		t.Fatalf("memoized reference: %v", err)
	}
	if rep2 != rep {
		t.Error("third call re-simulated instead of hitting the memo")
	}
}

// TestJournalResume is the crash/recover test: a grid journaled to a
// store and killed mid-flight (via an injected grid cancellation) resumes
// into rows deep-equal to an uninterrupted run's, re-simulating only the
// tuples the store is missing.
func TestJournalResume(t *testing.T) {
	specs := Specs(ScaleSmall)[:3]
	// Jobs: 1 makes run completion order deterministic, so the injected
	// cancellation kills the grid at a known point: everything before the
	// victim run is journaled, everything from it on is missing.
	opt := Options{P: 4, Seeds: 1, Jobs: 1, Verify: true}
	const runsPerSpec = 5 // TS + (T1 + 1 seed) on each of two platforms
	total := runsPerSpec * len(specs)

	clean, err := MeasureAll(t.Context(), specs, opt)
	if err != nil {
		t.Fatalf("uninterrupted grid: %v", err)
	}

	path := filepath.Join(t.TempDir(), "grid.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	// The first parallel run of the last spec cancels the grid: specs 0
	// and 1 are fully journaled, spec 2 has only its TS record.
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: specs[2].Name, Mode: faultinject.ParallelOnly},
		Kind:   faultinject.CancelGrid,
		N:      0,
		Trips:  1,
		Cancel: cancel,
	})
	defer faultinject.Disarm()
	jopt := opt
	jopt.Cache = st
	_, err = MeasureAll(ctx, specs, jopt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed grid: err = %v, want context.Canceled", err)
	}
	faultinject.Disarm()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	stored := st2.Len()
	if stored == 0 || stored >= total {
		t.Fatalf("journal has %d records, want a proper non-empty subset of %d", stored, total)
	}
	ropt := opt
	ropt.Cache = st2
	var mu sync.Mutex
	var replayed, simulated int
	ropt.OnRun = func(m RunMeta) {
		mu.Lock()
		if m.Replayed {
			replayed++
		} else {
			simulated++
		}
		mu.Unlock()
	}
	rows, err := MeasureAll(t.Context(), specs, ropt)
	if err != nil {
		t.Fatalf("resumed grid: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, clean) {
		t.Errorf("resumed grid differs from uninterrupted grid:\nclean:   %+v\nresumed: %+v", clean, rows)
	}
	if replayed != stored {
		t.Errorf("replayed %d runs, want %d (one per journaled record)", replayed, stored)
	}
	if simulated != total-stored {
		t.Errorf("simulated %d runs, want only the %d missing tuples", simulated, total-stored)
	}

	// The resumed grid's appends completed the journal: a third run
	// replays everything and simulates nothing.
	st3, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != total {
		t.Fatalf("completed journal has %d records, want %d", st3.Len(), total)
	}
	replayed, simulated = 0, 0
	fopt := opt
	fopt.Cache = st3
	fopt.OnRun = ropt.OnRun
	rows2, err := MeasureAll(t.Context(), specs, fopt)
	if err != nil {
		t.Fatalf("fully replayed grid: %v", err)
	}
	if !reflect.DeepEqual(rows2, clean) {
		t.Errorf("fully replayed grid differs from uninterrupted grid")
	}
	if simulated != 0 || replayed != total {
		t.Errorf("full replay ran %d simulations and %d replays, want 0 and %d", simulated, replayed, total)
	}
}

// TestErrorRowsExport pins the export surface of a contained failure: the
// error row renders in the tables and round-trips through the JSON export
// with its classification intact.
func TestErrorRowsExport(t *testing.T) {
	spec := specByName(t, "heat")
	faultinject.Arm(faultinject.Plan{
		Target: faultinject.Target{Bench: spec.Name},
		Kind:   faultinject.FailVerify,
	})
	defer faultinject.Disarm()
	rows, err := MeasureAll(t.Context(), []Spec{spec}, Options{P: 4, Verify: true})
	if err != nil {
		t.Fatalf("MeasureAll must contain the failure: %v", err)
	}
	if row := rows[0]; row.Err == nil || row.Err.Kind != "verify" {
		t.Fatalf("row = %+v, want verify error row", row)
	}
	if out := metrics.Table7(rows); !strings.Contains(out, "FAILED") {
		t.Errorf("Table7 hides the failed row:\n%s", out)
	}
}

// nonFiniteAdapt is NUMA-WS with an Adapt hook that writes w into every
// hop-class weight. It is never registered: RunOne takes the policy value
// itself, so no other test's policy list sees it.
type nonFiniteAdapt struct {
	sched.Policy
	w float64
}

func (p nonFiniteAdapt) Name() string      { return "non-finite-adapt" }
func (p nonFiniteAdapt) AdaptEvery() int64 { return 64 }
func (p nonFiniteAdapt) Adapt(_ sched.Observation, weights []float64) bool {
	for i := range weights {
		weights[i] = p.w
	}
	return true
}

// TestNonFiniteAdaptWeightIsTypedError pins the Adapt boundary: a hook
// that writes a NaN or +Inf weight fails its run as a typed panic
// RunError that names Adapt, not as a later victim-selection panic
// blaming another hook, and the message carries the panic kind once.
func TestNonFiniteAdaptWeightIsTypedError(t *testing.T) {
	heat := specByName(t, "heat")
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		_, err := RunOne(t.Context(), heat, nonFiniteAdapt{sched.NUMAWS, w}, Options{P: 16})
		var re *RunError
		if !errors.As(err, &re) || re.Kind != KindPanic {
			t.Fatalf("weight %g: err = %v, want a panic *RunError", w, err)
		}
		if msg := re.RowError().Message; !strings.Contains(msg, "Adapt set weight") {
			t.Errorf("weight %g: failure %q does not name Adapt", w, msg)
		}
		if strings.Contains(err.Error(), "panic: panic") {
			t.Errorf("weight %g: doubled panic prefix: %v", w, err)
		}
	}
}
