// Package core is the NUMA-WS task-parallel platform: the paper's primary
// contribution, exposed as a Go library.
//
// The programming model mirrors Cilk Plus extended with the paper's locality
// API: Spawn is cilk_spawn, Sync is cilk_sync, SpawnAt is cilk_spawn with an
// @p# place annotation (Fig. 4), and SetPlace/PlaceAny update or unset a
// frame's hint. The model stays processor-oblivious: the same program runs
// unchanged on any worker/socket count; it queries NumPlaces at run time to
// initialize its place variables, exactly as the paper's benchmarks do.
//
// A computation can execute two ways, both against the same Context
// interface:
//
//   - Runtime.RunSerial: the serial elision (spawn = call, sync = no-op),
//     measuring TS;
//   - Runtime.Run: the simulated parallel platform under any registered
//     scheduling policy, measuring T1..TP in virtual cycles.
package core

import (
	"repro/internal/memory"
	"repro/internal/sched"
)

// PlaceAny unsets a locality hint, the paper's @ANY annotation.
const PlaceAny = sched.PlaceAny

// Task is a Cilk function: a unit of spawnable work.
type Task func(Context)

// Context is the per-frame handle through which a Task expresses parallelism
// (Spawn/Sync), locality (SpawnAt/SetPlace/NumPlaces) and its compute and
// memory footprint (Compute/Read/Write), which both the serial elision and
// the simulated platform charge in virtual cycles.
type Context interface {
	// Spawn runs the task as a spawned child that may execute in parallel
	// with the continuation of the caller. The child inherits the caller's
	// locality hint, the paper's default: "any computation subsequently
	// spawned by G is also marked to have the same locality".
	Spawn(t Task)
	// SpawnAt is Spawn with an explicit place hint (@p#), or PlaceAny to
	// unset the inherited hint for this child.
	SpawnAt(place int, t Task)
	// Sync blocks until all children spawned by this frame have returned.
	Sync()
	// Call runs the task synchronously in the current frame, like a plain
	// function call in Cilk (no new schedulable frame).
	Call(t Task)

	// Compute charges n cycles of pure computation to the current strand.
	Compute(n int64)
	// Read charges a read of bytes [off, off+n) of region r.
	Read(r *memory.Region, off, n int64)
	// Write charges a write of bytes [off, off+n) of region r.
	Write(r *memory.Region, off, n int64)
	// ReadStrided charges count reads of elem bytes each, spaced stride
	// bytes apart starting at off — a matrix column walk or regular gather.
	ReadStrided(r *memory.Region, off, stride, elem int64, count int)
	// WriteStrided is the store analogue of ReadStrided.
	WriteStrided(r *memory.Region, off, stride, elem int64, count int)

	// NumPlaces reports how many virtual places this run has (one per
	// socket in use). Programs size their place variables from it.
	NumPlaces() int
	// Place reports the current frame's locality hint (PlaceAny if unset).
	Place() int
	// SetPlace updates the current frame's locality hint.
	SetPlace(p int)
	// Worker reports the executing worker's id (0 on serial executors);
	// diagnostic only.
	Worker() int
}

// SpawnRange recursively splits [lo, hi) by binary spawning and runs body on
// each index — the expansion of cilk_for, which "is syntactic sugar that
// compiles down to binary spawning of iterations". grain is the base-case
// coarsening: chunks of at most grain indices run serially via bodyRange.
func SpawnRange(ctx Context, lo, hi, grain int, bodyRange func(Context, int, int)) {
	if grain < 1 {
		grain = 1
	}
	type span struct{ lo, hi int }
	var impl func(ctx Context, s span)
	impl = func(ctx Context, s span) {
		for s.hi-s.lo > grain {
			mid := s.lo + (s.hi-s.lo)/2
			left := span{s.lo, mid}
			ctx.Spawn(func(c Context) { impl(c, left) })
			s.lo = mid
		}
		bodyRange(ctx, s.lo, s.hi)
	}
	impl(ctx, span{lo, hi})
	ctx.Sync()
}
