// Package deque implements the work-stealing deque of Cilk-5 (Frigo,
// Leiserson, Randall, PLDI 1998) as a plain single-owner ring: the owner
// pushes and pops at the tail (LIFO), thieves take from the head (FIFO,
// the oldest and, in the ABP potential argument, the "top-heavy" item).
//
// The paper keeps Cilk-5's THE protocol unchanged in NUMA-WS. Its cost is
// modelled, not executed: the engine's cost model (package sched's
// spawnCost, returnCost and stealAttemptCost) charges the protocol's
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
	end   int // len(tasks), kept as a field so PushTail fits the inline budget
	tasks []T
	// capacity is the most live items; tasks grows toward it on demand.
	capacity int
	zero     T
}

// DefaultCapacity bounds deque depth. Depth equals the spawn depth of the
// computation (one entry per in-flight spawned ancestor), which is
// logarithmic for divide-and-conquer programs, so this is generous.
const DefaultCapacity = 1 << 16

// initialSlots is the ring a new deque starts with. Spawn depth is
// logarithmic for divide-and-conquer programs, so almost every deque stays
// this small; deeper ones double on demand up to their capacity.
const initialSlots = 64

// New returns an empty deque that holds at most capacity items
// (DefaultCapacity if capacity <= 0). Its ring starts small and doubles on
// demand, so only the spawn depth actually reached costs memory.
func New[T any](capacity int) *Deque[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	slots := min(capacity, initialSlots)
	return &Deque[T]{end: slots, tasks: make([]T, slots), capacity: capacity}
}

// PushTail adds x at the tail. It panics if the deque already holds its
// capacity (spawn depth exceeded it). The full-ring path is out of line,
// in makeRoom, so PushTail inlines into the engine's spawn path.
//
//numaws:alloc-free
func (d *Deque[T]) PushTail(x T) {
	if d.tail == d.end {
		d.makeRoom()
	}
	d.tasks[d.tail] = x
	d.tail++
}

// makeRoom frees the slot at the tail of a ring whose end is reached: it
// doubles the ring, up to the capacity, when live items fill at least half
// of it, and otherwise shifts the live entries [head, tail) to the front.
//
//numaws:alloc-free
func (d *Deque[T]) makeRoom() {
	n := d.tail - d.head
	if n == d.capacity {
		panic("deque: capacity exceeded")
	}
	if len(d.tasks) < d.capacity && 2*n >= len(d.tasks) {
		tasks := make([]T, min(2*len(d.tasks), d.capacity)) //numaws:alloc-ok growth to the spawn depth reached, amortized over the doubling
		copy(tasks, d.tasks[d.head:d.tail])
		d.tasks, d.end, d.head, d.tail = tasks, len(tasks), 0, n
		return
	}
	copy(d.tasks, d.tasks[d.head:d.tail])
	clear(d.tasks[n:d.tail])
	d.head, d.tail = 0, n
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
