package main

// The grid workloads: the paper's pipeline and a policy tournament, each
// repetition on a new session, every repetition's rendered output checked
// against the set-up pass (and, at seed 1, against a committed golden).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/pkg/numaws"
)

// paperNine is the benchmark set all-small.golden pins.
var paperNine = []string{"cg", "cilksort", "heat", "hull1", "hull2", "matmul", "matmul-z", "strassen", "strassen-z"}

// gridRep is one repetition's output.
type gridRep struct {
	out    string
	runs   int
	tuples []tuple
}

// gridInstance drives one grid workload.
type gridInstance struct {
	cfg    *config
	runRep func(ctx context.Context, cfg *config) (gridRep, error)
	first  string // the set-up pass's output
}

func startPaperGrid(ctx context.Context, cfg *config, t *tally) (instance, error) {
	return startGrid(ctx, cfg, t, paperGridRep, "cmd/numaws/testdata/all-small.golden")
}

func startSpawnTree(ctx context.Context, cfg *config, t *tally) (instance, error) {
	golden := "bench/testdata/spawn-tree.golden"
	if cfg.spawnScale != workloads.ScaleFull || cfg.spawnSeeds != benchSizes.spawnSeeds {
		golden = "" // the golden pins the committed sizes only
	}
	return startGrid(ctx, cfg, t, spawnTreeRep, golden)
}

// startGrid runs the cold first repetition and checks it: against the
// golden at seed 1, and it becomes the reference later repetitions match.
func startGrid(ctx context.Context, cfg *config, t *tally, rep func(context.Context, *config) (gridRep, error), golden string) (instance, error) {
	r, err := rep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var mismatch error
	if golden != "" && cfg.seed == 1 {
		want, err := os.ReadFile(filepath.Join(cfg.root, golden))
		if err != nil {
			return nil, err
		}
		if r.out != string(want) {
			mismatch = fmt.Errorf("seed-1 output differs from %s", golden)
		}
	}
	t.op(mismatch)
	return &gridInstance{cfg: cfg, runRep: rep, first: r.out}, nil
}

// check runs one repetition and compares its output with the first pass.
func (g *gridInstance) check(ctx context.Context, t *tally) (gridRep, error) {
	r, err := g.runRep(ctx, g.cfg)
	if ctx.Err() != nil {
		return r, ctx.Err()
	}
	if err == nil && r.out != g.first {
		err = fmt.Errorf("repetition output differs from the set-up pass")
	}
	t.op(err)
	return r, nil
}

// timed runs whole repetitions until the deadline; each is one window.
func (g *gridInstance) timed(ctx context.Context, until time.Time, t *tally) (phase, error) {
	var ph phase
	var runs int64
	ph.samples = append(ph.samples, takeSample(runs))
	for time.Now().Before(until) {
		t0 := time.Now()
		r, err := g.check(ctx, t)
		if err != nil {
			return ph, err
		}
		ph.opMs = append(ph.opMs, ms(time.Since(t0)))
		runs += int64(r.runs)
		ph.samples = append(ph.samples, takeSample(runs))
	}
	return ph, nil
}

func (g *gridInstance) rep(ctx context.Context, t *tally) (repInfo, error) {
	s0 := takeSample(0)
	r, err := g.check(ctx, t)
	if err != nil {
		return repInfo{}, err
	}
	s1 := takeSample(0)
	wall := s1.at.Sub(s0.at)
	return repInfo{tuples: r.tuples, wall: wall, cpu: s1.cpu - s0.cpu, opMs: []float64{ms(wall)}}, nil
}

func (g *gridInstance) close() error { return nil }

// paperGridRep is `numaws -scale small -topology paper-4x8 -bench <paper
// nine> all`, composed from pkg/numaws exactly as cmd/numaws composes it:
// fig1, fig6, fig3, tables, fig9, dag. Session.Each stands in for
// MeasureAll (same rows) so the completed runs stream out for tracing.
func paperGridRep(ctx context.Context, cfg *config) (gridRep, error) {
	s, err := numaws.New(
		numaws.WithTopology("paper-4x8"),
		numaws.WithScale(numaws.ScaleSmall),
		numaws.WithBenchmarks(paperNine...),
		numaws.WithSeed(cfg.seed),
		numaws.WithJobs(jobs),
	)
	if err != nil {
		return gridRep{}, err
	}
	defer s.Close()
	var r gridRep
	var b strings.Builder
	onRun := func(run numaws.Run) {
		r.runs++
		r.tuples = append(r.tuples, tuple{Bench: run.Bench, Scale: workloads.ScaleSmall, Topo: "paper-4x8",
			Policy: run.Policy, P: run.P, Seed: run.Seed, Time: run.Time})
	}

	fmt.Fprintln(&b, "Fig. 1: the evaluation machine")
	fmt.Fprint(&b, s.Machine().Description)
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Fig. 6(a): Z-Morton layout (cell by cell)")
	fmt.Fprint(&b, numaws.MortonGrid(8))
	fmt.Fprintln(&b, "\nFig. 6(b): blocked Z-Morton layout (4x4 blocks, row-major inside)")
	fmt.Fprint(&b, numaws.BlockedMortonGrid(8, 4))
	fmt.Fprintln(&b)

	var fig3 []string
	for _, bm := range s.Benchmarks() {
		if bm.Fig3 {
			fig3 = append(fig3, bm.Name)
		}
	}
	rows, err := s.Each(ctx, onRun, fig3...)
	if err := rowsErr(rows, err); err != nil {
		return r, err
	}
	fmt.Fprint(&b, numaws.Fig3(rows))
	fmt.Fprintln(&b)

	rows, err = s.Each(ctx, onRun)
	if err := rowsErr(rows, err); err != nil {
		return r, err
	}
	fmt.Fprint(&b, numaws.Table7(rows))
	fmt.Fprintln(&b)
	fmt.Fprint(&b, numaws.Table8(rows))
	fmt.Fprintln(&b)

	series, err := s.Scalability(ctx, nil)
	if err != nil {
		return r, err
	}
	for _, sr := range series {
		r.runs += len(sr.P)
	}
	fmt.Fprint(&b, numaws.Fig9(series))
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Measured computation dags (strand cycles; parallelism = work/span)")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "benchmark", "work (T1)", "span (Tinf)", "parallelism")
	dags, err := s.DAGs(ctx)
	if err != nil {
		return r, err
	}
	for _, d := range dags {
		fmt.Fprintf(&b, "%-12s %14d %14d %14.1f\n", d.Bench, d.Work, d.Span, d.Parallelism)
	}
	r.runs += len(dags)
	fmt.Fprintln(&b)

	r.out = b.String()
	return r, nil
}

// rowsErr reports a measurement's error or its first failed row.
func rowsErr(rows []numaws.Row, err error) error {
	if err != nil {
		return err
	}
	for _, row := range rows {
		if row.Err != nil {
			return row.Err
		}
	}
	return nil
}

// spawnTreeRep is `numaws -topology paper-4x8 -seeds 4 tournament -bench
// fib,nqueens`: every registered policy over fib and nqueens at full
// scale. It calls harness.Tournament, which Session.Tournament wraps, so
// each completed run streams out for tracing.
func spawnTreeRep(ctx context.Context, cfg *config) (gridRep, error) {
	top, ok := topology.Preset("paper-4x8")
	if !ok {
		return gridRep{}, fmt.Errorf("no paper-4x8 topology preset")
	}
	var specs []harness.Spec
	for _, name := range []string{"fib", "nqueens"} {
		for _, sp := range harness.Specs(cfg.spawnScale) {
			if sp.Name == name {
				specs = append(specs, sp)
			}
		}
	}
	var r gridRep
	opt := harness.Options{
		Topology: top, Seed: cfg.seed, Seeds: cfg.spawnSeeds, Verify: true, Jobs: jobs,
		OnRun: func(m harness.RunMeta) {
			r.runs++
			r.tuples = append(r.tuples, tuple{Bench: m.Bench, Scale: cfg.spawnScale, Topo: "paper-4x8",
				Policy: m.Policy, P: m.P, Seed: m.Seed, Time: m.Time})
		},
	}
	tour, err := harness.Tournament(ctx, specs, []harness.Machine{{Name: "paper-4x8", Top: top}},
		harness.RegisteredPolicies(), nil, opt)
	if err != nil {
		return r, err
	}
	r.out = metrics.TournamentTable(&tour)
	return r, nil
}
