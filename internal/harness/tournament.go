package harness

// The policy tournament: every given policy runs the same benchmark x
// topology grid and the policies are ranked by metrics.NewTournament's
// normalized-geomean score. Each cell runs at the machine's full core
// count (the canonical whole-machine comparison; a fixed P would bias the
// grid toward machines it happens to fit) and is averaged over opt.Seeds
// scheduler seeds, exactly like MeasureTopologies. Runs go through the
// optional ResultCache — the same journal-keyed store the sweep service
// executes through — so a repeated tournament over a warm store simulates
// nothing.

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/pkg/numaws/results"
)

// Tournament runs pols over the specs x machines grid and ranks them.
// cache may be nil (every cell simulates). Any cell's failure — including
// a contained *RunError — aborts the tournament: a ranking with missing
// cells would silently compare incomparables. Cancelling ctx skips every
// simulation not yet started and returns the context's error.
func Tournament(ctx context.Context, specs []Spec, machines []Machine, pols []sched.Policy, cache ResultCache, opt Options) (results.Tournament, error) {
	opt = opt.fill()
	if len(pols) == 0 {
		return results.Tournament{}, fmt.Errorf("harness: tournament needs at least one policy")
	}
	if len(specs) == 0 {
		return results.Tournament{}, fmt.Errorf("harness: tournament needs at least one benchmark")
	}
	if len(machines) == 0 {
		return results.Tournament{}, fmt.Errorf("harness: tournament needs at least one machine")
	}
	seen := make(map[string]bool, len(pols))
	for _, pol := range pols {
		if seen[pol.Name()] {
			return results.Tournament{}, fmt.Errorf("harness: tournament policy %q named twice", pol.Name())
		}
		seen[pol.Name()] = true
	}
	// times[k][sd]: cell k = ((pol * specs) + spec) * machines + machine.
	cellOf := func(pi, si, mi int) int { return (pi*len(specs)+si)*len(machines) + mi }
	times := make([][]int64, len(pols)*len(specs)*len(machines))
	pool := exec.NewPool(ctx, opt.Jobs)
	em := newEmitter(opt.OnRun)
	idx := 0
	for pi, pol := range pols {
		for si, spec := range specs {
			for mi, mach := range machines {
				cell := &times[cellOf(pi, si, mi)]
				*cell = make([]int64, opt.Seeds)
				for sd := 0; sd < opt.Seeds; sd++ {
					pol, spec, mach, slot := pol, spec, mach, &(*cell)[sd]
					o := opt
					o.Topology = mach.Top
					o.P = mach.Top.Cores()
					o.Seed = opt.Seed + int64(sd)
					pool.Submit(ctx, idx, func() error {
						res, _, err := ExecuteThrough(ctx, cache, spec, pol, o, false)
						if err != nil {
							return err
						}
						*slot = res.Time
						em.emit(RunMeta{Bench: spec.Name, Policy: pol.Name(),
							P: o.P, Seed: o.Seed, Time: res.Time})
						return nil
					})
					idx++
				}
			}
		}
	}
	if err := pool.Wait(ctx); err != nil {
		return results.Tournament{}, err
	}
	cells := make([]metrics.CellTime, 0, len(times))
	for pi, pol := range pols {
		for si, spec := range specs {
			for mi, mach := range machines {
				var total int64
				for _, t := range times[cellOf(pi, si, mi)] {
					total += t
				}
				cells = append(cells, metrics.CellTime{
					Policy: pol.Name(), Bench: spec.Name, Topology: mach.Name,
					TP: total / int64(opt.Seeds),
				})
			}
		}
	}
	return metrics.NewTournament(cells)
}

// RegisteredPolicies resolves every registered policy, in registry (name)
// order — the tournament's default contestant list.
func RegisteredPolicies() []sched.Policy {
	names := sched.Names()
	out := make([]sched.Policy, len(names))
	for i, n := range names {
		pol, err := sched.Lookup(n)
		if err != nil {
			// Names and Lookup read the same registry; a miss here is a
			// registry bug, not a caller error.
			panic(err)
		}
		out[i] = pol
	}
	return out
}
