package server

// Request intake: decoding a request body and expanding a grid request
// into validated run tuples. The request and row types are the wire
// schema of pkg/numaws/wire, the one declaration both the server and the
// facade's clients use.

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/pkg/numaws/wire"
)

// decodeRequest decodes one JSON request body into v. Unknown fields are
// a client bug, not a silent ignore, so they are an error.
func decodeRequest(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// grid is an expanded request: its runs in canonical order, plus what a
// row names that a run's key does not.
type grid struct {
	runs       []harness.Run
	machines   []harness.Machine // named as the request named them
	perMachine int               // runs per (bench, machine) block
	scale      string
}

// topology is run i's machine as the request named it. Run i belongs to
// the (bench, machine) block i / perMachine, and blocks cycle through the
// machines within each bench.
func (g *grid) topology(i int) string { return g.machines[i/g.perMachine%len(g.machines)].Name }

// row is run i's grid row carrying res, named by its key.
func (g *grid) row(i int, key journal.Key, res journal.Result, cached bool) wire.GridRow {
	return wire.GridRow{
		Bench: key.Bench, Input: key.Input, Scale: g.scale, Topology: g.topology(i),
		Policy: key.Policy, P: key.P, Seed: key.Seed, Serial: key.Serial, Cached: cached,
		Time: res.Time, Work: res.Work, Sched: res.Sched, Idle: res.Idle,
	}
}

// repeated is an error naming the first value vals holds twice, if any.
func repeated[T comparable](axis string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("duplicate %s entry %#v", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// expand validates a request the way the CLI validates its flags — every
// unknown name is an error listing the accepted ones, never a silent
// default — and expands the axes into the grid's run list: bench-major,
// then topology, the serial row first, then policy × workers × seeds.
// The grid's size is checked against the server's limit before any
// topology is built or any run expanded, so a small request naming a huge
// cross product costs only its own axes. A grid within the limit must not
// repeat a value on any axis: the first repeat, in the axis order
// benches, topologies, policies, workers, seeds, is an error naming its
// axis and value. Aliases are distinct values: two names of one machine
// ("uniform" and "1x32"), or worker 0 beside the machine's core count
// (a tournament rejects machine aliases itself; see handleTournament).
func (s *Server) expand(req wire.GridRequest) (*grid, error) {
	scaleName := req.Scale
	var sc harness.Scale
	switch scaleName {
	case "", "full":
		scaleName, sc = "full", harness.ScaleFull
	case "small":
		sc = harness.ScaleSmall
	default:
		return nil, fmt.Errorf("unknown scale %q (want small or full)", req.Scale)
	}
	verify := true
	if req.Verify != nil {
		verify = *req.Verify
	}
	polNames := req.Policies
	if len(polNames) == 0 {
		polNames = []string{"numaws"}
	}
	pols := make([]sched.Policy, 0, len(polNames))
	for _, n := range polNames {
		pol, err := sched.Lookup(n)
		if err != nil {
			return nil, err
		}
		pols = append(pols, pol)
	}
	workers := req.Workers
	if len(workers) == 0 {
		workers = []int{0}
	}
	maxP := 0
	for _, p := range workers {
		if p < 0 {
			return nil, fmt.Errorf("negative worker count %d", p)
		}
		maxP = max(maxP, p)
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	for _, sd := range seeds {
		if sd == 0 {
			return nil, errors.New("seed 0 is reserved as the engine's default; pass an explicit non-zero seed")
		}
	}
	// The count saturates just past the limit, so no product of axis
	// lengths can overflow it.
	limit := s.maxRuns
	mul := func(a, b int) int {
		if a != 0 && b > limit/a {
			return limit + 1
		}
		return a * b
	}
	perMachine := mul(mul(len(pols), len(workers)), len(seeds))
	if req.Serial {
		perMachine++
	}
	topoSpecs := req.Topologies
	if len(topoSpecs) == 0 {
		topoSpecs = []string{"paper-4x8"}
	}
	specs := harness.Specs(sc)
	nBench := len(req.Benches)
	if nBench == 0 {
		nBench = len(specs)
	}
	n := mul(mul(nBench, len(topoSpecs)), perMachine)
	if n > limit {
		return nil, fmt.Errorf("grid exceeds this server's limit of %d runs; split the request", limit)
	}
	if err := cmp.Or(repeated("benches", req.Benches), repeated("topologies", req.Topologies),
		repeated("policies", req.Policies), repeated("workers", req.Workers), repeated("seeds", req.Seeds)); err != nil {
		return nil, err
	}
	if len(req.Benches) > 0 {
		var err error
		if specs, err = harness.SelectSpecs(specs, req.Benches); err != nil {
			return nil, err
		}
	}
	// Topologies are resolved last: each parsed machine holds a distance
	// matrix, so only a grid within the limit gets to build them.
	machines := make([]harness.Machine, 0, len(topoSpecs))
	for _, t := range topoSpecs {
		top, err := topology.Parse(t)
		if err != nil {
			return nil, err
		}
		if maxP > top.Cores() {
			return nil, fmt.Errorf("%d workers out of range [1,%d] for topology %s", maxP, top.Cores(), t)
		}
		machines = append(machines, harness.Machine{Name: t, Top: top})
	}
	g := &grid{runs: make([]harness.Run, 0, n), machines: machines, perMachine: perMachine, scale: scaleName}
	add := func(sp harness.Spec, top *topology.Topology, pol sched.Policy, p int, seed int64) {
		opt := harness.Options{Topology: top, P: p, Seed: seed, Verify: verify}
		g.runs = append(g.runs, harness.Run{Spec: sp, Policy: pol, Opt: opt})
	}
	for _, sp := range specs {
		for _, m := range machines {
			if req.Serial {
				add(sp, m.Top, nil, 1, seeds[0])
			}
			for _, pol := range pols {
				for _, p := range workers {
					rp := p
					if rp == 0 {
						rp = m.Top.Cores()
					}
					for _, sd := range seeds {
						add(sp, m.Top, pol, rp, sd)
					}
				}
			}
		}
	}
	return g, nil
}
