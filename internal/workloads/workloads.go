// Package workloads implements the evaluation benchmarks and the
// name-keyed registry that makes the suite an open experiment axis.
//
// The in-tree suite is the paper's nine configurations — cg, cilksort,
// heat, hull (two inputs), matmul, strassen, plus the blocked-Z-Morton
// variants matmul-z and strassen-z — and five DAG-diverse additions from
// the classic Cilk suite: fib, nqueens, fft, lu and rectmul. All register
// at init (suite.go, suite_cilk.go); the harness, the public facade and
// the CLI derive their suites from the registry (Register/Lookup/Names/
// Specs), and pkg/numaws.RegisterBenchmark opens registration to
// embedding programs.
//
// Each benchmark performs the real computation on real Go slices (so results
// are verifiable against independent serial references) while annotating its
// compute and memory footprint through the Context, which is what the
// simulated platform charges. Every benchmark comes in two configurations:
// the baseline (what the paper runs on Cilk Plus: best-of first-touch or
// interleave allocation, no hints) and the NUMA-aware configuration
// (partitioned allocation plus locality hints, what the paper runs on
// NUMA-WS). Benchmarks with no data to place (fib, nqueens) or that the
// paper runs unhinted (matmul, strassen, rectmul) drop the aware flag.
package workloads

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// Workload is one benchmark instance. Instances are single-use: Prepare
// allocates and initializes inputs on a Runtime, Root returns the timed
// computation, and Verify checks the computed result after the run.
type Workload interface {
	// Name is the benchmark's table name (e.g. "cilksort", "matmul-z").
	Name() string
	// Prepare allocates simulated regions on rt and fills the real data.
	Prepare(rt *core.Runtime)
	// Root is the timed computation (the paper times the solve phase, not
	// input generation).
	Root() core.Task
	// Verify checks the result against an independent serial reference.
	Verify() error
}

// Config selects the benchmark configuration.
type Config struct {
	// Aware enables the NUMA-aware setup: partitioned data placement and
	// locality hints (the NUMA-WS side of the paper's tables).
	Aware bool
	// Seed drives input generation.
	Seed int64
}

// basePolicy is the allocation policy of the baseline configuration:
// first-touch after serial initialization, so every page lands on socket
// 0.
func basePolicy() memory.Policy { return memory.BindTo{Socket: 0} }

// bandPolicy returns the allocation policy for a banded array: partitioned
// over places when aware, the base policy otherwise.
func (c Config) bandPolicy(places int) memory.Policy {
	if !c.Aware {
		return basePolicy()
	}
	return memory.Partition(places)
}

// scratchPolicy is the policy for arrays that are never initialized before
// the timed region (temporaries, pack buffers): under the baseline they get
// genuine first-touch — each page binds to whichever worker writes it first,
// as the OS would do — and under the aware configuration they are banded
// like everything else.
func (c Config) scratchPolicy(places int) memory.Policy {
	if !c.Aware {
		return memory.FirstTouch{}
	}
	return c.bandPolicy(places)
}

// rng is a small deterministic generator for input data (split-mix style so
// workloads do not depend on math/rand stream stability).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) int63() int64     { return int64(r.next() >> 1) }
func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// placeOf maps a band index in [0, bands) to a place in [0, places).
func placeOf(band, bands, places int) int {
	if places <= 1 {
		return core.PlaceAny
	}
	p := band * places / bands
	if p >= places {
		p = places - 1
	}
	return p
}

// spawnBands runs body(band) for every band in [0, bands), spawning
// recursively (binary) and earmarking each band for its place when aware is
// set. This is the data-parallel skeleton the banded benchmarks (heat, cg,
// hull's scan passes) share.
func spawnBands(ctx core.Context, bands, places int, aware bool, body func(core.Context, int)) {
	var rec func(c core.Context, lo, hi int)
	rec = func(c core.Context, lo, hi int) {
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			l, h := lo, mid
			if aware {
				// Earmark the subtree for the place of its middle band;
				// descendants inherit and deeper spawns refine the hint as
				// ranges narrow — the paper's default inheritance. With
				// continuation stealing this is what actually places leaf
				// work: a leaf always runs on the worker that spawned it,
				// so the subtree frame must already be on the right socket
				// by then.
				c.SpawnAt(placeOf((l+h-1)/2, bands, places), func(cc core.Context) { rec(cc, l, h) })
			} else {
				c.Spawn(func(cc core.Context) { rec(cc, l, h) })
			}
			lo = mid
		}
		if aware {
			if p := placeOf(lo, bands, places); p != core.PlaceAny {
				c.SetPlace(p)
			}
		}
		body(c, lo)
	}
	rec(ctx, 0, bands)
	ctx.Sync()
}
