package numaws

// Session's measurement surface: single runs, the paper's comparison
// protocol, streaming sweeps, scalability curves, topology sweeps, dag
// introspection and execution timelines. Every method takes a
// context.Context; cancellation skips every simulation not yet started and
// surfaces ctx.Err(), and simulations already running finish before the
// call returns (no goroutine outlives it).

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/sched"
)

// facadeErr converts a contained run failure crossing the boundary into
// its public type (*RunFailure, which implements error), so callers of the
// single-run surfaces classify failures without naming engine types.
// Grid-level errors (cancellation, journal I/O, name lookups) pass through
// unchanged.
func facadeErr(err error) error {
	var re *harness.RunError
	if errors.As(err, &re) {
		return re.RowError()
	}
	return err
}

// spec resolves one benchmark name against the session's suite.
func (s *Session) spec(bench string) (harness.Spec, error) {
	for _, sp := range s.specs {
		if sp.Name == bench {
			return sp, nil
		}
	}
	names := make([]string, len(s.specs))
	for i, sp := range s.specs {
		names[i] = sp.Name
	}
	return harness.Spec{}, fmt.Errorf("numaws: no benchmark named %q in this session (have %v)", bench, names)
}

// subset resolves an optional benchmark-name filter: no names means the
// session's whole suite. Explicit names follow the same rules as
// WithBenchmarks (selectSpecs): unknown and duplicate names are errors.
func (s *Session) subset(benches []string) ([]harness.Spec, error) {
	if len(benches) == 0 {
		return s.specs, nil
	}
	out, err := selectSpecs(s.specs, benches)
	if err != nil {
		return nil, fmt.Errorf("numaws: %w", err)
	}
	return out, nil
}

// Run executes the named benchmark once under the session's policy at the
// session's worker count and returns the run report.
func (s *Session) Run(ctx context.Context, bench string) (RunReport, error) {
	sp, err := s.spec(bench)
	if err != nil {
		return RunReport{}, err
	}
	rep, err := harness.RunOne(ctx, sp, s.policy, s.options())
	if err != nil {
		return RunReport{}, facadeErr(err)
	}
	return reportFrom(bench, s.policy.Name(), rep), nil
}

// RunSerial executes the named benchmark as the serial elision (spawn
// becomes call, sync a no-op) and returns the TS report.
func (s *Session) RunSerial(ctx context.Context, bench string) (RunReport, error) {
	sp, err := s.spec(bench)
	if err != nil {
		return RunReport{}, err
	}
	rep, err := harness.RunSerial(ctx, sp, s.options())
	if err != nil {
		return RunReport{}, facadeErr(err)
	}
	return reportFrom(bench, "serial", rep), nil
}

// Measure runs the paper's full comparison protocol for one benchmark: TS,
// then T1 and TP (with the work/scheduling/idle breakdown) under both the
// classic work-stealing baseline and the session's policy.
func (s *Session) Measure(ctx context.Context, bench string) (Row, error) {
	sp, err := s.spec(bench)
	if err != nil {
		return Row{}, err
	}
	row, err := harness.Measure(ctx, sp, s.options())
	if err != nil {
		return Row{}, err
	}
	return row, nil
}

// MeasureAll runs the comparison protocol for every benchmark of the
// session (or the named subset, in the given order). The grid's
// independent simulations execute concurrently on the session's job pool;
// rows are aggregated in canonical order, identical for every job count.
func (s *Session) MeasureAll(ctx context.Context, benches ...string) ([]Row, error) {
	specs, err := s.subset(benches)
	if err != nil {
		return nil, err
	}
	return harness.MeasureAll(ctx, specs, s.options())
}

// Each is the streaming MeasureAll: onRun receives every completed
// (benchmark, policy, P, seed) simulation as it finishes — in completion
// order, serialized — instead of the caller waiting for the aggregated
// rows, which are still returned at the end. Rows streamed before a
// cancellation are valid, completed measurements even though Each then
// returns ctx.Err() and nil rows.
func (s *Session) Each(ctx context.Context, onRun func(Run), benches ...string) ([]Row, error) {
	if onRun == nil {
		return nil, fmt.Errorf("numaws: Each requires a non-nil onRun callback")
	}
	specs, err := s.subset(benches)
	if err != nil {
		return nil, err
	}
	opt := s.options()
	opt.OnRun = func(m harness.RunMeta) {
		onRun(Run{Bench: m.Bench, Policy: m.Policy, P: m.P, Seed: m.Seed,
			Serial: m.Serial, Baseline: m.Baseline, Replayed: m.Replayed, Time: m.Time})
	}
	return harness.MeasureAll(ctx, specs, opt)
}

// Scalability measures the paper's Fig. 9 protocol under the session's
// policy: TP for every benchmark that has a scalability curve, at each of
// the given worker counts (nil points derive the machine's axis — 1 plus
// its quarter points, the paper's {1, 8, 16, 24, 32} on the default
// machine).
func (s *Session) Scalability(ctx context.Context, points []int, benches ...string) ([]Series, error) {
	specs, err := s.subset(benches)
	if err != nil {
		return nil, err
	}
	// The no-filter default measures whichever benchmarks have curves
	// (the Fig. 9 protocol), but an explicitly named benchmark without a
	// curve must not vanish silently from the result.
	for _, name := range benches {
		for _, sp := range specs {
			if sp.Name == name && sp.Fig9Name == "" {
				return nil, fmt.Errorf("numaws: benchmark %q has no scalability curve (the paper plots its -z variant instead)", name)
			}
		}
	}
	series, err := harness.MeasureScalability(ctx, specs, s.options(), points)
	if err != nil {
		return nil, facadeErr(err)
	}
	return series, nil
}

// Sweep runs the scalability protocol across a grid of machine topologies
// (preset names or "SOCKETSxCORES" shapes) under the session's policy, one
// curve per (benchmark, machine). nil points derive each machine's axis;
// explicit points are clipped to each machine's core count. The session's
// own topology does not participate unless named.
func (s *Session) Sweep(ctx context.Context, topologies []string, points []int, benches ...string) ([]SweepCurve, error) {
	specs, err := s.subset(benches)
	if err != nil {
		return nil, err
	}
	machines, err := harness.Machines(topologies)
	if err != nil {
		return nil, err
	}
	sweeps, err := harness.MeasureTopologies(ctx, specs, machines, s.options(), points)
	if err != nil {
		return nil, facadeErr(err)
	}
	return sweeps, nil
}

// DAGs measures each benchmark's computation dag — work, span and
// parallelism, the paper's Section IV quantities — by running it once
// under the session's policy; every run measures them. Benchmarks run
// concurrently on the session's job pool; results come back in suite
// order.
func (s *Session) DAGs(ctx context.Context, benches ...string) ([]DAGReport, error) {
	specs, err := s.subset(benches)
	if err != nil {
		return nil, err
	}
	opt := s.options()
	out := make([]DAGReport, len(specs))
	err = exec.ForEach(ctx, opt.Jobs, len(specs), func(i int) error {
		rep, err := harness.RunOne(ctx, specs[i], s.policy, opt)
		if err != nil {
			return facadeErr(err)
		}
		out[i] = DAGReport{
			Bench:       specs[i].Name,
			Work:        rep.DAG.Work,
			Span:        rep.DAG.Span,
			Parallelism: rep.DAG.Parallelism(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Timeline runs the named benchmark with an execution-timeline recorder
// under the classic baseline and under the session's policy (once, if they
// are the same) and renders each worker's time as a fixed-width chart of
// the given column width.
func (s *Session) Timeline(ctx context.Context, bench string, width int) ([]Timeline, error) {
	sp, err := s.spec(bench)
	if err != nil {
		return nil, err
	}
	policies := []sched.Policy{sched.Cilk, s.policy}
	if s.policy == sched.Cilk {
		policies = policies[:1]
	}
	opt := s.options()
	out := make([]Timeline, 0, len(policies))
	for _, pol := range policies {
		rep, tl, err := harness.RunTraced(ctx, sp, pol, opt)
		if err != nil {
			return nil, facadeErr(err)
		}
		out = append(out, Timeline{
			Policy: pol.Name(),
			P:      opt.P,
			Time:   rep.Time,
			Chart:  tl.Render(width),
		})
	}
	return out, nil
}
