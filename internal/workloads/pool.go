package workloads

// The workload-input pool. Building a benchmark's input tables (cg's
// sparse matrix, the sort arrays, the matrices) dominates per-run cost once
// the simulator core itself is allocation-free — and the tables are
// identical across every (policy, P, seed) cell of a measurement grid,
// because input generation depends only on (benchmark, scale, seed) and the
// aware flag changes placement policies, not data. The pool lets the
// harness check an instance out per run and return it afterwards, so each
// input is constructed once and reused across the whole grid, the way
// sched.Arena reuses engine state.
//
// Ownership and reset contract: an instance is owned exclusively by one run
// between Checkout and its release. Prepare on a reused instance must (1)
// re-register every region with the run's fresh Allocator (memory.Reuse,
// layout.Matrix.Rebind) in exactly the statement order of first
// construction — regions carry run-scoped first-touch page state, and
// identical order reproduces identical base offsets, so a reused input is
// indistinguishable from a fresh one to the simulator — and (2) restore any data the previous run mutated in place
// (cilksort re-copies its pristine input, lu re-copies the unfactored
// matrix, matmul/rectmul zero the accumulated C, heat re-seeds its grids,
// hull clears its mark array). Data that runs only read, or that is fully
// written before it is read, carries over untouched. The contract is pinned
// by TestPooledRunsVerifyBackToBack and the byte-identical golden output.

import (
	"sync"
	"sync/atomic"
)

// Reusable marks a workload whose Prepare supports being called again on a
// new Runtime after a completed run, per the contract above. All in-tree
// benchmarks are reusable; instances that are not stay single-use and are
// never pooled.
type Reusable interface {
	Workload
	reusableWorkload()
}

// reusable is embedded by workloads that honor the reuse contract.
type reusable struct{}

func (reusable) reusableWorkload() {}

// RefCache memoizes serial reference results (verify oracles, the
// harness's TS reports) shared by every instance of one benchmark input.
// Each key single-flights on its own lock, so concurrent -jobs workers
// asking for the same reference wait for one computation — while a compute
// may itself call Do with a different key (the harness's memoized TS run
// verifies through the same cache) without deadlocking.
type RefCache struct {
	mu   sync.Mutex
	vals map[string]*refEntry
}

type refEntry struct {
	mu   sync.Mutex
	done bool
	val  any
}

// NewRefCache returns an empty cache.
func NewRefCache() *RefCache { return &RefCache{vals: map[string]*refEntry{}} }

// Do returns the value cached under key, computing it on first use. A
// compute error is returned without being cached, so a failed or cancelled
// computation does not poison the cache for later callers.
func (c *RefCache) Do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	e := c.vals[key]
	if e == nil {
		e = &refEntry{}
		c.vals[key] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.val, nil
	}
	refComputes.Add(1)
	v, err := compute()
	if err != nil {
		return nil, err
	}
	e.val, e.done = v, true
	return v, nil
}

// refCacheUser is implemented by workloads that can share a reference
// cache; Checkout attaches the input's shared cache to each instance.
type refCacheUser interface{ SetRefCache(*RefCache) }

// refShared is embedded by workloads with cacheable verify references. The
// zero value works standalone: an instance used outside the pool lazily
// gets a private cache, preserving the old per-instance behavior.
type refShared struct{ refs *RefCache }

// SetRefCache implements refCacheUser.
func (r *refShared) SetRefCache(c *RefCache) { r.refs = c }

// refCache returns the attached cache, creating a private one on first use
// for unpooled instances.
func (r *refShared) refCache() *RefCache {
	if r.refs == nil {
		r.refs = NewRefCache()
	}
	return r.refs
}

// poolKey identifies one pooled input configuration. The registry
// generation guards against the test-only Unregister/re-Register cycle: a
// name re-registered with a different builder gets fresh keys, never stale
// instances.
type poolKey struct {
	gen   uint64
	name  string
	input string
	scale Scale
	aware bool
}

// refKey is poolKey without the aware flag: reference results depend only
// on the input data, which is identical across the aware axis, so both
// configurations share one cache.
type refKey struct {
	gen   uint64
	name  string
	input string
	scale Scale
}

var pool = struct {
	sync.Mutex
	free map[poolKey][]Reusable
	refs map[refKey]*RefCache
}{free: map[poolKey][]Reusable{}, refs: map[refKey]*RefCache{}}

// Pool activity counters; test hooks for the amortization and
// failure-containment tests.
var (
	constructed atomic.Uint64 // instances built by Checkout
	reused      atomic.Uint64 // instances handed out from the free list
	refComputes atomic.Uint64 // RefCache compute invocations
	quarantines atomic.Uint64 // pool-backed instances discarded after a failed run
)

// PoolCounters reports how many workload instances Checkout constructed,
// how many it reused from the pool, how many reference computations ran,
// and how many pool-backed instances were quarantined by Lease.Discard,
// since the last reset. Test hook.
func PoolCounters() (built, pooled, refs, quarantined uint64) {
	return constructed.Load(), reused.Load(), refComputes.Load(), quarantines.Load()
}

// ResetPoolCounters zeroes the counters. Test hook.
func ResetPoolCounters() {
	constructed.Store(0)
	reused.Store(0)
	refComputes.Store(0)
	quarantines.Store(0)
}

// FlushPools drops every pooled instance and shared reference cache, so a
// test can observe construction counts from a clean slate. Test hook.
func FlushPools() { flushPools() }

// flushPools drops every pooled instance and shared cache. Called when the
// registry changes: stamped generations rotate, so retained state would
// never be reachable again anyway.
func flushPools() {
	pool.Lock()
	clear(pool.free)
	clear(pool.refs)
	pool.Unlock()
}

// SharedCache returns the reference cache every pooled instance of spec
// shares, or nil for specs that did not come from the registry (hand-built
// literals have no pool identity, so there is nothing to share). The
// harness keys its TS memoization on it.
func SharedCache(spec Spec) *RefCache {
	if spec.poolGen == 0 {
		return nil
	}
	return sharedCache(refKey{gen: spec.poolGen, name: spec.Name, input: spec.Input, scale: spec.scale})
}

func sharedCache(rk refKey) *RefCache {
	pool.Lock()
	defer pool.Unlock()
	rc := pool.refs[rk]
	if rc == nil {
		rc = NewRefCache()
		pool.refs[rk] = rc
	}
	return rc
}

// Lease is the caller's exclusive hold on a checked-out instance. Exactly
// one of Release or Discard settles it once the run is over; the zero
// Lease (handed out for unpooled instances) settles either way as a no-op.
type Lease struct {
	release func()
	discard func()
}

// Release returns the instance to its pool for reuse. Only a fully
// successful run — verification included — may release: a reused instance
// is trusted to honor the Prepare reset contract, which a run that died
// mid-mutation cannot guarantee.
func (l Lease) Release() {
	if l.release != nil {
		l.release()
	}
}

// Discard quarantines the instance: dropped, never returned to the pool,
// counted in PoolCounters' quarantined column. Every failed run — panic,
// deadline interrupt, verification mismatch — must discard, mirroring the
// harness's arena discipline. Discarding an unpooled instance is a no-op
// (there is no pool to protect) and is not counted.
func (l Lease) Discard() {
	if l.discard != nil {
		l.discard()
	}
}

// Checkout returns a workload instance for spec's aware configuration plus
// the Lease that settles its ownership. The caller owns the instance
// exclusively until it settles the lease: Release after a fully successful
// run, Discard after any failure. fresh bypasses the pool — a newly built
// single-use instance, the unamortized path — as do specs with no pool
// identity and workloads that are not Reusable; their lease is a no-op
// both ways.
func Checkout(spec Spec, aware, fresh bool) (Workload, Lease) {
	if fresh || spec.poolGen == 0 {
		constructed.Add(1)
		return spec.Make(aware), Lease{}
	}
	key := poolKey{gen: spec.poolGen, name: spec.Name, input: spec.Input, scale: spec.scale, aware: aware}
	rk := refKey{gen: spec.poolGen, name: spec.Name, input: spec.Input, scale: spec.scale}

	pool.Lock()
	var w Reusable
	if list := pool.free[key]; len(list) > 0 {
		w = list[len(list)-1]
		list[len(list)-1] = nil
		pool.free[key] = list[:len(list)-1]
	}
	rc := pool.refs[rk]
	if rc == nil {
		rc = NewRefCache()
		pool.refs[rk] = rc
	}
	pool.Unlock()

	if w == nil {
		constructed.Add(1)
		inst := spec.Make(aware)
		if u, ok := inst.(refCacheUser); ok {
			u.SetRefCache(rc)
		}
		ru, ok := inst.(Reusable)
		if !ok {
			return inst, Lease{}
		}
		w = ru
	} else {
		reused.Add(1)
		if u, ok := Workload(w).(refCacheUser); ok {
			u.SetRefCache(rc)
		}
	}
	lease := Lease{
		release: func() {
			pool.Lock()
			pool.free[key] = append(pool.free[key], w)
			pool.Unlock()
		},
		discard: func() { quarantines.Add(1) },
	}
	return w, lease
}
