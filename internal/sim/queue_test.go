package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refHeap is the container/heap implementation the 4-ary Queue replaced,
// kept here as the executable specification for the ordering cross-check.
type refHeap []item

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestQueueMatchesContainerHeap drives the 4-ary queue and the boxed
// container/heap reference through identical interleaved push/pop streams —
// including duplicate times and duplicate (time, id) pairs — and requires
// identical pop sequences. (time, id) is a total order over distinct
// entries, so the pop order is fully determined and heap arity cannot show
// through; this test pins that.
func TestQueueMatchesContainerHeap(t *testing.T) {
	gen := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		var r refHeap
		for op := 0; op < 400; op++ {
			if q.Len() != r.Len() {
				t.Fatalf("trial %d: Len %d != reference %d", trial, q.Len(), r.Len())
			}
			if q.Len() > 0 && gen.Intn(3) == 0 {
				at, id := q.Pop()
				ref := heap.Pop(&r).(item)
				if at != ref.at || id != ref.id {
					t.Fatalf("trial %d op %d: Pop = (%d,%d), reference = (%d,%d)",
						trial, op, at, id, ref.at, ref.id)
				}
				continue
			}
			// Small value ranges force collisions on time and on (time, id).
			it := item{at: Time(gen.Intn(16)), id: gen.Intn(8)}
			q.Push(it.at, it.id)
			heap.Push(&r, it)
		}
		for q.Len() > 0 {
			at, id := q.Pop()
			ref := heap.Pop(&r).(item)
			if at != ref.at || id != ref.id {
				t.Fatalf("trial %d drain: Pop = (%d,%d), reference = (%d,%d)",
					trial, at, id, ref.at, ref.id)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("trial %d: reference has %d leftovers", trial, r.Len())
		}
	}
}

// TestQueuePushPopMatchesPushThenPop drives PushPop on one queue against
// Push followed by Pop on a second queue and on the container/heap
// reference, through identical random streams. Pushed times sit at or
// next to the root's time and ids range over both sides of the root's id,
// so ties are broken both ways; interleaved Push and Pop calls walk the
// queue size through one entry and empty.
func TestQueuePushPopMatchesPushThenPop(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var fused, split Queue
		var ref refHeap
		for op := 0; op < 400; op++ {
			if fused.Len() != split.Len() || fused.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: Len %d, Push+Pop %d, reference %d",
					trial, op, fused.Len(), split.Len(), ref.Len())
			}
			it := item{at: Time(gen.Intn(4)), id: gen.Intn(8)}
			if fused.Len() > 0 {
				root, _ := fused.Peek()
				it.at = root + Time(gen.Intn(3)) - 1
				if it.at < 0 {
					it.at = 0
				}
			}
			switch r := gen.Intn(8); {
			case r == 0 && fused.Len() < 6:
				fused.Push(it.at, it.id)
				split.Push(it.at, it.id)
				heap.Push(&ref, it)
			case r == 1 && fused.Len() > 0:
				fused.Pop()
				split.Pop()
				heap.Pop(&ref)
			default:
				at, id := fused.PushPop(it.at, it.id)
				split.Push(it.at, it.id)
				sat, sid := split.Pop()
				heap.Push(&ref, it)
				want := heap.Pop(&ref).(item)
				if at != sat || id != sid || at != want.at || id != want.id {
					t.Fatalf("trial %d op %d: PushPop(%d,%d) = (%d,%d), Push+Pop = (%d,%d), reference = (%d,%d)",
						trial, op, it.at, it.id, at, id, sat, sid, want.at, want.id)
				}
			}
		}
	}
}

// TestQueuePopsInSortedOrderProperty is the fuzz/property form: whatever the
// insertion order, a min-heap pops its multiset in sorted (time, id) order.
func TestQueuePopsInSortedOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var q Queue
		want := make([]item, len(raw))
		for i, r := range raw {
			it := item{at: Time(r % 512), id: i % 16}
			q.Push(it.at, it.id)
			want[i] = it
		}
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		for _, w := range want {
			at, id := q.Pop()
			if at != w.at || id != w.id {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQueueReset pins the reuse contract: Reset empties the queue but a
// reused queue orders entries exactly like a fresh one.
func TestQueueReset(t *testing.T) {
	var q Queue
	q.Push(3, 0)
	q.Push(1, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Push(5, 2)
	q.Push(4, 7)
	if at, id := q.Pop(); at != 4 || id != 7 {
		t.Errorf("first pop after reuse = (%d,%d), want (4,7)", at, id)
	}
	if at, id := q.Pop(); at != 5 || id != 2 {
		t.Errorf("second pop after reuse = (%d,%d), want (5,2)", at, id)
	}
}

// FuzzSimQueue drives the queue through an arbitrary operation sequence
// and checks every result against the container/heap reference. Each pair
// of bytes is one operation: the first byte's low three bits, mod 5, pick
// Push, Pop, PushPop, Before or Peek, the second is the (time, id)
// argument — time arg>>3, id arg&7, so times and ids collide often. With bit 3 of the op byte set and the
// queue non-empty, the time is instead the root's time -1, 0 or +1, which
// walks ties with the root from both sides. Before is checked against its
// definition: pushing the pair and popping would hand it straight back.
// Pop and Peek on an empty queue are skipped (they panic by contract).
func FuzzSimQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue
		var ref refHeap
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			x := item{at: Time(arg >> 3), id: int(arg & 7)}
			if op&8 != 0 && ref.Len() > 0 {
				x.at = ref[0].at + Time(arg>>3)%3 - 1
				if x.at < 0 {
					x.at = 0
				}
			}
			switch (op & 7) % 5 {
			case 0:
				q.Push(x.at, x.id)
				heap.Push(&ref, x)
			case 1:
				if ref.Len() == 0 {
					continue
				}
				at, id := q.Pop()
				if want := heap.Pop(&ref).(item); at != want.at || id != want.id {
					t.Fatalf("op %d: Pop = (%d,%d), reference (%d,%d)", i/2, at, id, want.at, want.id)
				}
			case 2:
				at, id := q.PushPop(x.at, x.id)
				heap.Push(&ref, x)
				if want := heap.Pop(&ref).(item); at != want.at || id != want.id {
					t.Fatalf("op %d: PushPop(%d,%d) = (%d,%d), reference (%d,%d)", i/2, x.at, x.id, at, id, want.at, want.id)
				}
			case 3:
				probe := append(refHeap(nil), ref...)
				heap.Push(&probe, x)
				want := heap.Pop(&probe).(item) == x
				if got := q.Before(x.at, x.id); got != want {
					t.Fatalf("op %d: Before(%d,%d) = %v, reference %v", i/2, x.at, x.id, got, want)
				}
			case 4:
				if ref.Len() == 0 {
					continue
				}
				at, id := q.Peek()
				if at != ref[0].at || id != ref[0].id {
					t.Fatalf("op %d: Peek = (%d,%d), reference (%d,%d)", i/2, at, id, ref[0].at, ref[0].id)
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("op %d: Len %d, reference %d", i/2, q.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			at, id := q.Pop()
			if want := heap.Pop(&ref).(item); at != want.at || id != want.id {
				t.Fatalf("drain: Pop = (%d,%d), reference (%d,%d)", at, id, want.at, want.id)
			}
		}
	})
}
