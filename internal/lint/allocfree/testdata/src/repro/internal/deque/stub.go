// Package deque shadows the real work-stealing deque with StealHead
// deleted: the coverage check must notice the documented hot-path
// function is gone rather than silently retiring the contract.
package deque // want `hot-path function Deque\.StealHead named by EXPERIMENTS\.md is missing from repro/internal/deque`

// Deque is a stand-in for the work-stealing deque.
type Deque struct{ items []int }

//numaws:alloc-free
func (d *Deque) PushTail(v int) {
	d.items[0] = v
}

//numaws:alloc-free
func (d *Deque) PopTail() (int, bool) { return 0, false }

// StealHalf is present and annotated, but its amortized-growth waiver
// lost its reason — on the bulk-steal hot path that is itself a finding,
// not a free pass.
//
//numaws:alloc-free
func (d *Deque) StealHalf(dst []int) int {
	//numaws:alloc-ok
	d.items = append(d.items, 0) // want `numaws:alloc-ok suppression is missing its mandatory reason`
	return len(dst)
}
