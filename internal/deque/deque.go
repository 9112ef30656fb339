// Package deque implements the work-stealing deque of Cilk-5 (Frigo,
// Leiserson, Randall, PLDI 1998) as a plain single-owner ring: the owner
// pushes and pops at the tail (LIFO), thieves take from the head (FIFO,
// the oldest and, in the ABP potential argument, the "top-heavy" item).
//
// The paper keeps Cilk-5's THE protocol unchanged in NUMA-WS. Its cost is
// modelled, not executed: the engine's cost model (sched.Config's
// SpawnCost, ReturnCost and StealAttemptCost) charges the protocol's
// work-path and steal-path cycles, so no simulated cycle depends on a real
// lock. A deque belongs to one simulated worker inside an arena that one
// run owns at a time, and the engine serializes every owner and thief
// access in virtual time; the deque is therefore not safe for concurrent
// use, and needs no synchronization.
package deque

// Deque is a double-ended queue of at most a fixed number of items. The
// zero value is unusable; call New.
type Deque[T any] struct {
	head  int // next index a thief takes
	tail  int // next index the owner pushes
	tasks []T
	zero  T
}

// DefaultCapacity bounds deque depth. Depth equals the spawn depth of the
// computation (one entry per in-flight spawned ancestor), which is
// logarithmic for divide-and-conquer programs, so this is generous.
const DefaultCapacity = 1 << 16

// New returns an empty deque with the given capacity (DefaultCapacity if
// capacity <= 0). Capacity is fixed; spawn depth bounds usage.
func New[T any](capacity int) *Deque[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Deque[T]{tasks: make([]T, capacity)}
}

// PushTail adds x at the tail. It panics if the deque is full (spawn depth
// exceeded capacity).
//
//numaws:alloc-free
func (d *Deque[T]) PushTail(x T) {
	if d.tail == len(d.tasks) {
		// Out of room at the end: shift the live entries [head, tail) to
		// the front and clear the slots they vacated.
		if d.head == 0 {
			panic("deque: capacity exceeded")
		}
		n := copy(d.tasks, d.tasks[d.head:d.tail])
		clear(d.tasks[n:d.tail])
		d.head, d.tail = 0, n
	}
	d.tasks[d.tail] = x
	d.tail++
}

// PopTail removes and returns the item at the tail, the newest.
//
//numaws:alloc-free
func (d *Deque[T]) PopTail() (T, bool) {
	if d.head == d.tail {
		return d.zero, false
	}
	d.tail--
	x := d.tasks[d.tail]
	d.tasks[d.tail] = d.zero
	return x, true
}

// StealHead removes and returns the item at the head, the oldest.
//
//numaws:alloc-free
func (d *Deque[T]) StealHead() (T, bool) {
	if d.head == d.tail {
		return d.zero, false
	}
	x := d.tasks[d.head]
	d.tasks[d.head] = d.zero
	d.head++
	return x, true
}

// StealHalf removes half the items in the deque (rounded up), at most
// len(dst), from the head into dst and returns how many were taken, in
// deque order (the oldest first — dst[0] is exactly the frame StealHead
// would have taken). Taking at most half preserves the ABP potential
// argument's shape: the victim keeps the deeper half of its deque, so a
// bulk-stealing policy still spreads top-heavy work without draining its
// victims.
//
//numaws:alloc-free
func (d *Deque[T]) StealHalf(dst []T) int {
	k := min((d.tail-d.head+1)/2, len(dst))
	copy(dst, d.tasks[d.head:d.head+k])
	clear(d.tasks[d.head : d.head+k])
	d.head += k
	return k
}

// Len reports the current number of items.
//
//numaws:alloc-free
func (d *Deque[T]) Len() int { return d.tail - d.head }

// Empty reports whether the deque has no items.
//
//numaws:alloc-free
func (d *Deque[T]) Empty() bool { return d.head == d.tail }
