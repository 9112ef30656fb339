package deque

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLIFOAtTail(t *testing.T) {
	d := New[int](8)
	for i := 1; i <= 3; i++ {
		d.PushTail(i)
	}
	for want := 3; want >= 1; want-- {
		got, ok := d.PopTail()
		if !ok || got != want {
			t.Fatalf("PopTail() = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	if _, ok := d.PopTail(); ok {
		t.Error("PopTail on empty deque succeeded")
	}
}

func TestFIFOAtHead(t *testing.T) {
	d := New[int](8)
	for i := 1; i <= 3; i++ {
		d.PushTail(i)
	}
	for want := 1; want <= 3; want++ {
		got, ok := d.StealHead()
		if !ok || got != want {
			t.Fatalf("StealHead() = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	if _, ok := d.StealHead(); ok {
		t.Error("StealHead on empty deque succeeded")
	}
}

func TestOwnerAndThiefInterleaved(t *testing.T) {
	d := New[int](8)
	d.PushTail(1) // oldest
	d.PushTail(2)
	d.PushTail(3) // newest
	if got, _ := d.StealHead(); got != 1 {
		t.Errorf("thief got %d, want 1 (oldest)", got)
	}
	if got, _ := d.PopTail(); got != 3 {
		t.Errorf("owner got %d, want 3 (newest)", got)
	}
	if got, _ := d.PopTail(); got != 2 {
		t.Errorf("owner got %d, want 2", got)
	}
	if d.Len() != 0 {
		t.Errorf("Len() = %d, want 0", d.Len())
	}
}

func TestCompactionOnFull(t *testing.T) {
	d := New[int](4)
	for i := 0; i < 4; i++ {
		d.PushTail(i)
	}
	// Steal two to free space at the front; pushes should compact.
	d.StealHead()
	d.StealHead()
	d.PushTail(4)
	d.PushTail(5)
	want := []int{2, 3, 4, 5}
	for _, w := range want {
		got, ok := d.StealHead()
		if !ok || got != w {
			t.Fatalf("after compaction StealHead() = (%d, %v), want (%d, true)", got, ok, w)
		}
	}
}

// TestCapacityPanic pins the capacity contract across lazy growth: New(c)
// holds exactly c items, in order, whether c fits the first ring, equals
// it, or needs it to grow, and the next push panics.
func TestCapacityPanic(t *testing.T) {
	for _, c := range []int{1, 2, initialSlots - 1, initialSlots, initialSlots + 1, 100} {
		d := New[int](c)
		for i := range c {
			d.PushTail(i)
		}
		if d.Len() != c {
			t.Fatalf("New(%d): Len() = %d after %d pushes", c, d.Len(), c)
		}
		for i := range c {
			if v, ok := d.StealHead(); !ok || v != i {
				t.Fatalf("New(%d): StealHead() = (%d, %v), want (%d, true)", c, v, ok, i)
			}
		}
		for i := range c {
			d.PushTail(i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d): push past capacity did not panic", c)
				}
			}()
			d.PushTail(c)
		}()
	}
}

// TestRingGrowsToSpawnDepth pins the lazy ring: a deque starts with
// initialSlots slots whatever its capacity, and the ring only grows, by
// doubling up to the capacity, when the live items need it.
func TestRingGrowsToSpawnDepth(t *testing.T) {
	d := New[int](0)
	if len(d.tasks) != initialSlots {
		t.Fatalf("New(0) ring = %d slots, want %d", len(d.tasks), initialSlots)
	}
	for i := range 1000 {
		d.PushTail(i)
		d.PopTail()
	}
	if len(d.tasks) != initialSlots {
		t.Errorf("push/pop at depth 1 grew the ring to %d slots", len(d.tasks))
	}
	for i := range 200 {
		d.PushTail(i)
	}
	if len(d.tasks) != 256 {
		t.Errorf("depth 200 ring = %d slots, want 256", len(d.tasks))
	}
	if c := New[int](100); len(c.tasks) != initialSlots {
		t.Errorf("New(100) ring = %d slots, want %d", len(c.tasks), initialSlots)
	}
}

func TestZeroCapacityGetsDefault(t *testing.T) {
	d := New[int](0)
	for i := 0; i < 100; i++ {
		d.PushTail(i)
	}
	if d.Len() != 100 {
		t.Errorf("Len() = %d, want 100", d.Len())
	}
}

// Property: any sequence of pushes then k steals + j pops partitions the
// items: steals see the oldest k in order, pops see the newest j newest-first.
func TestPartitionProperty(t *testing.T) {
	f := func(n, k uint8) bool {
		count := int(n)%32 + 1
		steals := int(k) % (count + 1)
		d := New[int](64)
		for i := 0; i < count; i++ {
			d.PushTail(i)
		}
		for i := 0; i < steals; i++ {
			got, ok := d.StealHead()
			if !ok || got != i {
				return false
			}
		}
		for i := count - 1; i >= steals; i-- {
			got, ok := d.PopTail()
			if !ok || got != i {
				return false
			}
		}
		_, ok := d.PopTail()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The deque is single-owner: the engine runs owner and thief operations
// one at a time, interleaved in virtual time. The three tests below replay
// such interleavings from a seeded schedule: between owner steps, steals
// runs 0..2 steal attempts, each by a randomly chosen thief. Every item
// must be consumed exactly once in total.
func steals(rng *rand.Rand, thieves int, steal func(thief int)) {
	for n := rng.IntN(3); n > 0; n-- {
		steal(rng.IntN(thieves))
	}
}

// One owner pushes and pops like a real worker, four thieves steal.
func TestConcurrentOwnerThieves(t *testing.T) {
	const items = 20000
	const thieves = 4
	rng := rand.New(rand.NewPCG(1, 2))
	d := New[int64](items + 1)
	var consumed, popped int64
	stolen := make([]int64, thieves)
	steal := func(thief int) {
		if _, ok := d.StealHead(); ok {
			consumed++
			stolen[thief]++
		}
	}

	// Owner: push all items, popping a few along the way.
	for i := int64(0); i < items; i++ {
		d.PushTail(i)
		steals(rng, thieves, steal)
		if i%3 == 0 {
			if _, ok := d.PopTail(); ok {
				consumed++
				popped++
			}
			steals(rng, thieves, steal)
		}
	}
	// Owner drains its remainder while thieves keep stealing. The bound
	// turns a deque that stops shrinking into a failure, not a hang.
	for range items {
		if _, ok := d.PopTail(); !ok {
			break
		}
		consumed++
		popped++
		steals(rng, thieves, steal)
	}
	// Final sweep by every thief.
	for th := range thieves {
		steal(th)
	}

	if consumed != items {
		t.Errorf("consumed %d items, want %d", consumed, items)
	}
	var total int64
	for th, n := range stolen {
		if n == 0 {
			t.Errorf("thief %d stole nothing; the schedule never interleaved it", th)
		}
		total += n
	}
	if total+popped != items {
		t.Errorf("stolen %d + popped %d = %d, want %d", total, popped, total+popped, items)
	}
	if !d.Empty() {
		t.Errorf("deque holds %d items after the sweep", d.Len())
	}
}

// noDuplicates runs items through one owner and three thieves, the owner
// popping after every other push so the deque deepens, and checks that
// each item is consumed exactly once. steal is one thief's attempt: it
// records every item it takes with see.
func noDuplicates(t *testing.T, seed uint64, steal func(d *Deque[int], see func(v int))) {
	t.Helper()
	const items = 5000
	const thieves = 3
	rng := rand.New(rand.NewPCG(seed, seed+1))
	d := New[int](items)
	seen := make([]int, items)
	see := func(v int) { seen[v]++ }
	thief := func(int) { steal(d, see) }

	for i := 0; i < items; i++ {
		d.PushTail(i)
		steals(rng, thieves, thief)
		if rng.IntN(2) == 0 {
			if v, ok := d.PopTail(); ok {
				see(v)
			}
			steals(rng, thieves, thief)
		}
	}
	for n := 0; n < items && !d.Empty(); n++ {
		steal(d, see)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, n)
		}
	}
}

func TestConcurrentNoDuplicates(t *testing.T) {
	noDuplicates(t, 3, func(d *Deque[int], see func(v int)) {
		if v, ok := d.StealHead(); ok {
			see(v)
		}
	})
}

func TestStealHalfTakesCeilHalfFromHead(t *testing.T) {
	for n := 0; n <= 9; n++ {
		d := New[int](16)
		for i := 0; i < n; i++ {
			d.PushTail(i)
		}
		dst := make([]int, 16)
		got := d.StealHalf(dst)
		want := (n + 1) / 2
		if got != want {
			t.Fatalf("n=%d: StealHalf took %d items, want %d", n, got, want)
		}
		for i := 0; i < got; i++ {
			if dst[i] != i {
				t.Fatalf("n=%d: dst[%d] = %d, want %d (oldest first)", n, i, dst[i], i)
			}
		}
		if d.Len() != n-want {
			t.Fatalf("n=%d: victim kept %d items, want %d", n, d.Len(), n-want)
		}
		// The victim's remaining items are the deeper half, still poppable
		// in LIFO order.
		for i := n - 1; i >= want; i-- {
			v, ok := d.PopTail()
			if !ok || v != i {
				t.Fatalf("n=%d: PopTail() = (%d, %v), want (%d, true)", n, v, ok, i)
			}
		}
	}
}

func TestStealHalfBoundedByDst(t *testing.T) {
	d := New[int](16)
	for i := 0; i < 10; i++ {
		d.PushTail(i)
	}
	dst := make([]int, 2)
	if got := d.StealHalf(dst); got != 2 {
		t.Fatalf("StealHalf with len-2 dst took %d, want 2", got)
	}
	if dst[0] != 0 || dst[1] != 1 {
		t.Fatalf("StealHalf took %v, want [0 1]", dst)
	}
	if d.Len() != 8 {
		t.Fatalf("victim has %d items, want 8", d.Len())
	}
	if got := d.StealHalf(nil); got != 0 {
		t.Fatalf("StealHalf with nil dst took %d, want 0", got)
	}
}

func TestStealHalfConcurrentNoDuplicates(t *testing.T) {
	dst := make([]int, 5000)
	noDuplicates(t, 5, func(d *Deque[int], see func(v int)) {
		k := d.StealHalf(dst)
		for _, v := range dst[:k] {
			see(v)
		}
	})
}

// FuzzDeque drives a small deque through an arbitrary sequence of owner
// and thief operations and checks every result against a plain-slice
// model. data[0] picks the capacity: 1..8 below 128, so pushes past the
// end compact often, and 64..191 from 128 up, so the ring grows past its
// first 64 slots and compacts after growing. Each later byte is one
// operation: PushTail, PopTail, StealHead,
// StealHalf into a dst of length 0..9, Len or Empty. A push the model says
// would overflow is skipped (TestCapacityPanic covers the panic). After
// every operation the live range must hold the model's items in order and
// every other slot must be zero, so a popped, stolen or compacted-away
// frame is never kept reachable.
func FuzzDeque(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%8 + 1
		if data[0] >= 128 {
			capacity = initialSlots + int(data[0]-128)
		}
		d := New[int](capacity)
		var model []int
		next := 1
		for i, b := range data[1:] {
			switch b % 6 {
			case 0:
				if len(model) == capacity {
					continue
				}
				d.PushTail(next)
				model = append(model, next)
				next++
			case 1:
				got, ok := d.PopTail()
				want, wantOK := 0, len(model) > 0
				if wantOK {
					want, model = model[len(model)-1], model[:len(model)-1]
				}
				if got != want || ok != wantOK {
					t.Fatalf("op %d: PopTail() = (%d, %v), want (%d, %v)", i, got, ok, want, wantOK)
				}
			case 2:
				got, ok := d.StealHead()
				want, wantOK := 0, len(model) > 0
				if wantOK {
					want, model = model[0], model[1:]
				}
				if got != want || ok != wantOK {
					t.Fatalf("op %d: StealHead() = (%d, %v), want (%d, %v)", i, got, ok, want, wantOK)
				}
			case 3:
				dst := make([]int, int(b/6)%10)
				got := d.StealHalf(dst)
				want := min((len(model)+1)/2, len(dst))
				if got != want {
					t.Fatalf("op %d: StealHalf(len %d) took %d of %d, want %d", i, len(dst), got, len(model), want)
				}
				for j := range got {
					if dst[j] != model[j] {
						t.Fatalf("op %d: StealHalf dst[%d] = %d, want %d", i, j, dst[j], model[j])
					}
				}
				model = model[got:]
			case 4:
				if d.Len() != len(model) {
					t.Fatalf("op %d: Len() = %d, want %d", i, d.Len(), len(model))
				}
			case 5:
				if d.Empty() != (len(model) == 0) {
					t.Fatalf("op %d: Empty() = %v with %d items", i, d.Empty(), len(model))
				}
			}
			for j, v := range d.tasks {
				want := 0
				if j >= d.head && j < d.tail {
					want = model[j-d.head]
				}
				if v != want {
					t.Fatalf("op %d: slot %d = %d, want %d (live range [%d, %d))", i, j, v, want, d.head, d.tail)
				}
			}
		}
	})
}
