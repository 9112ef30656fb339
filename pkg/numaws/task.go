package numaws

// The embeddable programming model: user fork-join computations run on the
// session's simulated machine through the facade's own Task/Context pair,
// so embedders never touch engine types. The model mirrors Cilk Plus
// extended with the paper's locality API — Spawn is cilk_spawn, Sync is
// cilk_sync, SpawnAt is cilk_spawn with an @p# place annotation — and
// stays processor-oblivious: the same program runs unchanged on any
// worker/socket count, querying NumPlaces at run time.

import (
	"context"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// PlaceAny unsets a locality hint, the paper's @ANY annotation.
const PlaceAny = -1

// The facade constant must agree with the engine's.
var _ = [1]struct{}{}[PlaceAny-core.PlaceAny]

// Task is a unit of spawnable work in a user computation.
type Task func(Context)

// Context is the per-frame handle through which a Task expresses
// parallelism (Spawn/Sync), locality (SpawnAt/SetPlace/NumPlaces) and its
// compute footprint (Compute). Cost-model methods are no-ops on the serial
// elision.
type Context interface {
	// Spawn runs the task as a spawned child that may execute in parallel
	// with the continuation of the caller. The child inherits the
	// caller's locality hint.
	Spawn(t Task)
	// SpawnAt is Spawn with an explicit place hint (@p#), or PlaceAny to
	// unset the inherited hint for this child.
	SpawnAt(place int, t Task)
	// Sync blocks until all children spawned by this frame have returned.
	Sync()
	// Call runs the task synchronously in the current frame, like a plain
	// function call (no stealable continuation).
	Call(t Task)
	// Compute charges n cycles of pure computation to the current strand.
	Compute(n int64)
	// NumPlaces reports how many virtual places this run has (one per
	// socket in use). Programs size their place variables from it.
	NumPlaces() int
	// Place reports the current frame's locality hint (PlaceAny if
	// unset).
	Place() int
	// SetPlace updates the current frame's locality hint.
	SetPlace(p int)
	// Worker reports the executing worker's id (0 on serial executors);
	// diagnostic only.
	Worker() int
}

// taskCtx adapts the engine's context to the facade's Context interface.
type taskCtx struct {
	c core.Context
}

var _ Context = taskCtx{}

func adapt(t Task) core.Task {
	return func(c core.Context) { t(taskCtx{c: c}) }
}

func (t taskCtx) Spawn(f Task)              { t.c.Spawn(adapt(f)) }
func (t taskCtx) SpawnAt(place int, f Task) { t.c.SpawnAt(place, adapt(f)) }
func (t taskCtx) Sync()                     { t.c.Sync() }
func (t taskCtx) Call(f Task)               { t.c.Call(adapt(f)) }
func (t taskCtx) Compute(n int64)           { t.c.Compute(n) }
func (t taskCtx) NumPlaces() int            { return t.c.NumPlaces() }
func (t taskCtx) Place() int                { return t.c.Place() }
func (t taskCtx) SetPlace(p int)            { t.c.SetPlace(p) }
func (t taskCtx) Worker() int               { return t.c.Worker() }

// RunTask executes a user fork-join computation on the session's simulated
// machine under the session's policy, at the session's worker count and
// seed, and returns the run report (Bench is empty for user computations).
// It is a single run of the same contained path as Run: a panic anywhere
// in the computation comes back as a *RunFailure of kind "panic", and the
// run honors WithRunTimeout and WithRetry; cancelling ctx interrupts a
// started run and returns ctx.Err().
func (s *Session) RunTask(ctx context.Context, t Task) (RunReport, error) {
	rep, err := harness.RunOne(ctx, taskSpec(t), s.policy, s.options())
	if err != nil {
		return RunReport{}, facadeErr(err)
	}
	return reportFrom("", s.policy.Name(), rep), nil
}

// RunTaskSerial executes a user computation as the serial elision (spawn
// becomes call, sync a no-op) and returns its TS report. Failures come
// back as RunTask's do.
func (s *Session) RunTaskSerial(ctx context.Context, t Task) (RunReport, error) {
	rep, err := harness.RunSerial(ctx, taskSpec(t), s.options())
	if err != nil {
		return RunReport{}, facadeErr(err)
	}
	return reportFrom("", "serial", rep), nil
}

// taskSpec wraps a user computation as a one-run benchmark. A hand-built
// spec has no pool identity, so the harness neither pools its instance
// nor memoizes its serial report.
func taskSpec(t Task) harness.Spec {
	return harness.Spec{Make: func(bool) workloads.Workload {
		return &userWorkload{run: BenchmarkRun{Root: t}}
	}}
}
