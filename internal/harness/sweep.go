package harness

// The topology-sweep experiment surface: the Fig. 9 scalability protocol
// run across a grid of machine shapes instead of only the paper's 4x8
// machine. Every (machine, spec, point, seed) run is one entry of the
// grid executor (execute), folded in canonical order so output is
// byte-identical for every Jobs value.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/topology"
	"repro/pkg/numaws/results"
)

// Machine names one topology of a sweep grid.
type Machine struct {
	Name string
	Top  *topology.Topology
}

// Machines resolves topology specs (preset names or SxC shapes; see
// topology.Parse) into sweep machines, rejecting unknown or duplicate names.
func Machines(specs []string) ([]Machine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("harness: no topologies given")
	}
	seen := make(map[string]bool, len(specs))
	out := make([]Machine, 0, len(specs))
	for _, spec := range specs {
		if seen[spec] {
			return nil, fmt.Errorf("harness: duplicate topology %q", spec)
		}
		seen[spec] = true
		top, err := topology.Parse(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, Machine{Name: spec, Top: top})
	}
	return out, nil
}

// SweepPoints derives a machine's worker-count axis the way Fig. 9 chose the
// paper machine's {1, 8, 16, 24, 32}: one worker, then the quarter points of
// the whole machine. Machines too small for distinct quarters degenerate
// gracefully (duplicates collapse).
func SweepPoints(top *topology.Topology) []int {
	c := top.Cores()
	pts := []int{1}
	for _, q := range []int{c / 4, c / 2, 3 * c / 4, c} {
		if q > pts[len(pts)-1] {
			pts = append(pts, q)
		}
	}
	return pts
}

// machinePoints fixes the point axis for one machine: the explicit points
// clipped to the machine (deduplicated, ascending, 1 always present so
// Speedup has its T1 base), or SweepPoints when none were given. Clipping
// lets one -points list serve a mixed-size grid, but a machine none of the
// requested points fit is an error, not a silent one-point curve.
func machinePoints(name string, top *topology.Topology, points []int) ([]int, error) {
	if len(points) == 0 {
		return SweepPoints(top), nil
	}
	set := map[int]bool{1: true}
	fit := false
	for _, p := range points {
		if p < 1 {
			return nil, fmt.Errorf("harness: sweep point %d must be at least 1", p)
		}
		if p <= top.Cores() {
			set[p] = true
			fit = true
		}
	}
	if !fit {
		return nil, fmt.Errorf("harness: no sweep point in %v fits topology %s (%d cores)",
			points, name, top.Cores())
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out, nil
}

// MeasureTopologies runs the scalability protocol for every spec on every
// machine under opt.Policy: TP at each worker point, averaged over
// opt.Seeds scheduler seeds. points nil derives each machine's axis with
// SweepPoints; explicit points are clipped to each machine's core count.
// Results group by machine in the given order, one sweep per (machine,
// spec). Runs execute through opt.Cache when it is set, so a point some
// earlier grid measured is filled from it. Cancelling ctx skips every
// simulation not yet started and returns the context's error; completed
// runs already streamed through opt.OnRun remain valid.
func MeasureTopologies(ctx context.Context, specs []Spec, machines []Machine, opt Options, points []int) ([]results.SweepCurve, error) {
	opt = opt.fill()
	if len(machines) == 0 {
		return nil, fmt.Errorf("harness: no machines to sweep")
	}
	axes := make([][]int, len(machines))
	for m, mach := range machines {
		axis, err := machinePoints(mach.Name, mach.Top, points)
		if err != nil {
			return nil, err
		}
		axes[m] = axis
	}
	var runs []run
	for m, mach := range machines {
		for _, spec := range specs {
			for _, p := range axes[m] {
				for sd := 0; sd < opt.Seeds; sd++ {
					o := opt
					o.Topology = mach.Top
					o.P = p
					o.Seed = opt.Seed + int64(sd)
					runs = append(runs, run{spec: spec, pol: opt.Policy, opt: o})
				}
			}
		}
	}
	res, _, err := execute(ctx, opt, opt.Cache, runs, false)
	if err != nil {
		return nil, err
	}
	out := make([]results.SweepCurve, 0, len(machines)*len(specs))
	k := 0
	for m, mach := range machines {
		for _, spec := range specs {
			s := results.SweepCurve{
				Bench:    spec.Name,
				Topology: mach.Name,
				Sockets:  mach.Top.Sockets(),
				Cores:    mach.Top.Cores(),
				P:        axes[m],
			}
			for range axes[m] {
				s.TP = append(s.TP, mean(res[k:k+opt.Seeds]).Time)
				k += opt.Seeds
			}
			out = append(out, s)
		}
	}
	return out, nil
}
