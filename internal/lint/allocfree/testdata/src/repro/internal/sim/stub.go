// Package sim shadows the real event-queue package to test annotation
// coverage: all documented hot-path functions exist, one lacks its
// annotation.
package sim

type item struct{ key, tick int64 }

// Queue is a stand-in for the 4-ary event heap.
type Queue struct{ h []item }

//numaws:alloc-free
func (q *Queue) Push(k, t int64) {
	q.h = append(q.h, item{k, t}) //numaws:alloc-ok heap capacity is reserved up front; steady state never grows
}

//numaws:alloc-free
func (q *Queue) Pop() int64 {
	it := q.h[len(q.h)-1]
	q.h = q.h[:len(q.h)-1]
	return it.key
}

//numaws:alloc-free
func (q *Queue) PushPop(k, t int64) int64 { return k }

//numaws:alloc-free
func (q *Queue) Peek() int64 { return q.h[0].key }

// Picker is a stand-in for the precomputed victim picker.
type Picker struct{ cum []float64 }

//numaws:alloc-free
func (p *Picker) Pick(x float64) int { return len(p.cum) }

// RNG is a stand-in for the seeded per-worker RNG.
type RNG struct{ state uint64 }

func (g *RNG) PickUniformExcept(n, except int) int { // want `hot-path function RNG\.PickUniformExcept must be annotated //numaws:alloc-free`
	return n - 1
}
