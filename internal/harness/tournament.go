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
	var runs []run
	for _, pol := range pols {
		for _, spec := range specs {
			for _, mach := range machines {
				for sd := 0; sd < opt.Seeds; sd++ {
					o := opt
					o.Topology = mach.Top
					o.P = mach.Top.Cores()
					o.Seed = opt.Seed + int64(sd)
					runs = append(runs, run{spec: spec, pol: pol, opt: o})
				}
			}
		}
	}
	res, _, err := execute(ctx, opt, cache, runs, false)
	if err != nil {
		return results.Tournament{}, err
	}
	cells := make([]metrics.CellTime, 0, len(runs)/opt.Seeds)
	for _, pol := range pols {
		for _, spec := range specs {
			for _, mach := range machines {
				k := len(cells) * opt.Seeds
				cells = append(cells, metrics.CellTime{
					Policy: pol.Name(), Bench: spec.Name, Topology: mach.Name,
					TP: mean(res[k : k+opt.Seeds]).Time,
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
