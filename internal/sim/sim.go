// Package sim provides the primitives of the deterministic discrete-event
// simulation that replaces the paper's physical testbed: a virtual-time
// priority queue of workers and a seeded random number generator.
//
// All scheduler randomness (victim selection, the deque-vs-mailbox coin
// flip, receiver choice in work pushing) flows through one RNG, so a run is
// a pure function of (program, configuration, seed). Ties in virtual time
// are broken by worker id, which keeps the event order total.
//
// Both primitives are built for the engine's hot loop: the queue is an
// index-based 4-ary min-heap of (time, id) pairs — no interface boxing, no
// per-push allocation, amortized O(1) push into a reused backing array —
// and victim selection goes through a Picker whose weights are validated
// and prefix-summed once at construction, so each draw is a single Float64
// plus an O(log n) binary search instead of an O(n) validate-and-scan.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is virtual time in cycles.
type Time = int64

// item is a queue entry: worker id scheduled to act at a virtual time.
type item struct {
	at Time
	id int
}

// less orders entries by (time, id) — the simulation's total event order.
//
//numaws:alloc-free
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// Queue is a min-heap of worker wakeups ordered by (time, id). The zero
// value is ready to use.
//
// The heap is 4-ary: with one entry per simulated worker the tree is at
// most a couple of levels deep, sift-down touches one cache line of
// children per level, and — unlike container/heap — Push and Pop move
// concrete 16-byte items with no interface conversions and no allocation
// beyond the amortized growth of the backing array, which a reused Queue
// never pays again.
type Queue struct {
	h []item
}

// validated entry points: every panic the queue can raise is funneled
// through these two checks, so the messages stay consistent and the
// hot-path methods below stay branch-light.

// checkTime guards Push against negative virtual time.
//
//numaws:alloc-free
func checkTime(at Time) {
	if at < 0 {
		panic(fmt.Sprintf("sim: negative time %d", at))
	}
}

// checkNonEmpty guards Pop and Peek; op names the failing operation.
//
//numaws:alloc-free
func (q *Queue) checkNonEmpty(op string) {
	if len(q.h) == 0 {
		panic("sim: " + op + " empty queue")
	}
}

// Push schedules worker id to act at virtual time at.
//
//numaws:alloc-free
func (q *Queue) Push(at Time, id int) {
	checkTime(at)
	q.h = append(q.h, item{at: at, id: id}) //numaws:alloc-ok amortized growth of the reused backing array; a warmed-up queue never grows again (BenchmarkQueue pins 0 allocs/op)
	q.siftUp(len(q.h) - 1)
}

// Pop removes and returns the earliest (time, id) entry. It panics on an
// empty queue; callers gate on Len.
//
//numaws:alloc-free
func (q *Queue) Pop() (Time, int) {
	q.checkNonEmpty("pop from")
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top.at, top.id
}

// PushPop is Push(at, id) followed by Pop, fused: it returns (at, id)
// untouched when that pair is still the minimum, and otherwise swaps it
// with the root and sifts it down once. The engine's loop re-queues the
// worker it just ran and immediately takes the earliest one, so this is one
// sift per simulated event instead of two.
//
//numaws:alloc-free
func (q *Queue) PushPop(at Time, id int) (Time, int) {
	checkTime(at)
	if q.Before(at, id) {
		return at, id
	}
	top := q.h[0]
	q.h[0] = item{at: at, id: id}
	q.siftDown(0)
	return top.at, top.id
}

// Before reports whether (at, id) would be the next entry out if it were
// pushed now: the queue is empty or no queued (time, id) precedes it. It is
// exactly the test PushPop makes before returning its argument untouched,
// so a worker whose next event passes Before is the worker the engine's
// loop would run next.
//
//numaws:alloc-free
func (q *Queue) Before(at Time, id int) bool {
	return len(q.h) == 0 || !q.h[0].less(item{at: at, id: id})
}

// Peek reports the earliest entry without removing it.
//
//numaws:alloc-free
func (q *Queue) Peek() (Time, int) {
	q.checkNonEmpty("peek at")
	return q.h[0].at, q.h[0].id
}

// Len reports the number of queued entries.
//
//numaws:alloc-free
func (q *Queue) Len() int { return len(q.h) }

// Reset empties the queue, keeping the backing array for reuse.
//
//numaws:alloc-free
func (q *Queue) Reset() { q.h = q.h[:0] }

//numaws:alloc-free
func (q *Queue) siftUp(i int) {
	x := q.h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = x
}

//numaws:alloc-free
func (q *Queue) siftDown(i int) {
	n := len(q.h)
	x := q.h[i]
	for {
		c := 4*i + 1 // first child
		if c >= n {
			break
		}
		// Find the smallest of the up-to-four children.
		min := c
		last := c + 4
		if last > n {
			last = n
		}
		for j := c + 1; j < last; j++ {
			if q.h[j].less(q.h[min]) {
				min = j
			}
		}
		if !q.h[min].less(x) {
			break
		}
		q.h[i] = q.h[min]
		i = min
	}
	q.h[i] = x
}

// RNG is the seeded source of all scheduler randomness.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Coin returns true with probability 1/2 — the NUMA-WS thief's choice
// between a victim's deque and its mailbox.
func (g *RNG) Coin() bool { return g.r.Intn(2) == 0 }

// checkWeight panics unless w is a usable draw weight: finite and
// non-negative. A NaN or +Inf weight would make every draw fall through to
// the last index.
func checkWeight(w float64, i int) {
	if !(w >= 0) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("sim: weight %g at %d is negative or not finite", w, i))
	}
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Weights must be finite and non-negative with
// a positive sum. This implements the locality-biased victim distribution.
//
// Pick re-validates and re-scans the weights on every call; hot paths that
// draw from a fixed distribution should build a Picker once instead. Pick
// scans the same left-to-right cumulative sums a Picker searches, so the
// two agree draw for draw (TestPickerMatchesLinearPick and FuzzPicker pin
// that); this linear form is kept as the executable specification and for
// one-off draws.
func (g *RNG) Pick(weights []float64) int {
	var sum float64
	for i, w := range weights {
		checkWeight(w, i)
		sum += w
	}
	if sum <= 0 {
		panic("sim: weights sum to zero")
	}
	x := g.r.Float64() * sum
	var acc float64
	for i, w := range weights {
		acc += w
		if acc > x {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// Picker draws indices from a fixed weight distribution. The weights are
// validated once and folded into left-to-right prefix sums at construction,
// so each Pick costs one Float64 draw plus a binary search — O(log n)
// instead of Pick's O(n) validate-and-scan — and consumes exactly the same
// single Float64 the linear Pick would, returning the same index.
type Picker struct {
	// prefix[i] is weights[0] + ... + weights[i-1], accumulated left to
	// right exactly as Pick's cumulative scan accumulates them.
	prefix []float64
}

// NewPicker validates weights (finite and non-negative, positive sum — the
// same panics Pick raises per call, paid once here) and returns a Picker
// over them. The weights slice is not retained.
func NewPicker(weights []float64) *Picker {
	p := &Picker{prefix: make([]float64, len(weights)+1)}
	for i, w := range weights {
		checkWeight(w, i)
		p.prefix[i+1] = p.prefix[i] + w
	}
	if p.prefix[len(weights)] <= 0 {
		panic("sim: weights sum to zero")
	}
	return p
}

// Len reports the number of weights.
//
//numaws:alloc-free
func (p *Picker) Len() int { return len(p.prefix) - 1 }

// Pick draws one index with probability proportional to its weight, using
// g the exact same way the linear RNG.Pick does (one Float64 per draw).
//
//numaws:alloc-free
func (p *Picker) Pick(g *RNG) int {
	n := len(p.prefix) - 1
	x := g.r.Float64() * p.prefix[n]
	// The linear scan returns the first i whose cumulative weight strictly
	// exceeds x; binary-search the prefix sums for it. An index with zero
	// weight can never be first (its prefix entry equals its
	// predecessor's), matching the scan's skip of zero weights.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.prefix[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == n {
		lo = n - 1 // floating-point slack, as in the linear scan
	}
	return lo
}

// PickUniformExcept draws a uniform index in [0, n) excluding self,
// consuming g exactly as Pick would over a weight vector of n ones with a
// zero at self (the engine's uniform victim distribution): one Float64
// draw, same resulting index, but O(1) and with no weights array at all.
//
//numaws:alloc-free
func (g *RNG) PickUniformExcept(n, self int) int {
	if n < 2 || self < 0 || self >= n {
		panic(fmt.Sprintf("sim: uniform pick over %d entries excluding %d", n, self))
	}
	// Pick would compute sum = n-1 (exact: a left-to-right sum of ones)
	// and scan x = Float64()*(n-1) through the ones, landing on the
	// floor(x)-th non-self index; the fallthrough on floating-point slack
	// returns the last index, exactly as the scan's `return len-1` does.
	x := g.r.Float64() * float64(n-1)
	k := int(x)
	if k >= n-1 {
		return n - 1
	}
	if k >= self {
		k++
	}
	return k
}
