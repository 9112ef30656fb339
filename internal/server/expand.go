package server

// Request intake: decoding a request body and expanding a grid request
// into validated run tuples. The request and row types are the wire
// schema of pkg/numaws/wire, the one declaration both the server and the
// facade's clients use.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

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

// runSpec is one expanded grid cell, validated and resolved. Its key is
// built once, at expansion, and carries the run's identity: bench, input,
// policy ("serial" for serial rows), P, seed, serial and verify.
type runSpec struct {
	spec      harness.Spec
	topoName  string
	top       *topology.Topology
	pol       sched.Policy // nil for serial rows
	scaleName string
	key       journal.Key
}

// row is the run's grid row carrying res.
func (rn *runSpec) row(res journal.Result, cached bool) *wire.GridRow {
	return &wire.GridRow{
		Bench: rn.key.Bench, Input: rn.key.Input, Scale: rn.scaleName,
		Topology: rn.topoName, Policy: rn.key.Policy, P: rn.key.P, Seed: rn.key.Seed,
		Serial: rn.key.Serial, Cached: cached,
		Time: res.Time, Work: res.Work, Sched: res.Sched, Idle: res.Idle,
	}
}

// expand validates a request the way the CLI validates its flags — every
// unknown name is an error listing the accepted ones, never a silent
// default — and expands the axes into the grid's run list: bench-major,
// then topology, the serial row first, then policy × workers × seeds.
// The grid's size is checked against the server's limit before any
// topology is built or any run expanded, so a small request naming a huge
// cross product costs only its own axes.
func (s *Server) expand(req wire.GridRequest) ([]runSpec, error) {
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
	all := harness.Specs(sc)
	specs := all
	if len(req.Benches) > 0 {
		byName := make(map[string]harness.Spec, len(all))
		known := make([]string, 0, len(all))
		for _, sp := range all {
			byName[sp.Name] = sp
			known = append(known, sp.Name)
		}
		specs = make([]harness.Spec, 0, len(req.Benches))
		for _, n := range req.Benches {
			sp, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("no benchmark named %q (want %s)", n, strings.Join(known, ", "))
			}
			specs = append(specs, sp)
		}
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
	n := mul(mul(len(specs), len(topoSpecs)), perMachine)
	if n > limit {
		return nil, fmt.Errorf("grid exceeds this server's limit of %d runs; split the request", limit)
	}
	// Topologies are resolved last: each parsed machine holds a distance
	// matrix, so only a grid within the limit gets to build them.
	type machine struct {
		name string
		top  *topology.Topology
	}
	machines := make([]machine, 0, len(topoSpecs))
	for _, t := range topoSpecs {
		top, err := topology.Parse(t)
		if err != nil {
			return nil, err
		}
		if maxP > top.Cores() {
			return nil, fmt.Errorf("%d workers out of range [1,%d] for topology %s", maxP, top.Cores(), t)
		}
		machines = append(machines, machine{name: t, top: top})
	}
	runs := make([]runSpec, 0, n)
	add := func(sp harness.Spec, m machine, pol sched.Policy, p int, seed int64) {
		opt := harness.Options{Topology: m.top, P: p, Seed: seed, Verify: verify}
		runs = append(runs, runSpec{
			spec: sp, topoName: m.name, top: m.top, pol: pol, scaleName: scaleName,
			key: harness.KeyFor(sp, pol, opt, pol == nil),
		})
	}
	for _, sp := range specs {
		for _, m := range machines {
			if req.Serial {
				add(sp, m, nil, 1, seeds[0])
			}
			for _, pol := range pols {
				for _, p := range workers {
					rp := p
					if rp == 0 {
						rp = m.top.Cores()
					}
					for _, sd := range seeds {
						add(sp, m, pol, rp, sd)
					}
				}
			}
		}
	}
	return runs, nil
}
