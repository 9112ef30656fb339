package memory

import "unsafe"

// elem is the element types an Array holds.
type elem interface{ float64 | int32 | int64 }

// Array pairs a real Go slice (on which a workload performs the actual
// computation) with a simulated Region (against which the cache model
// charges access costs). The pairing is what lets a benchmark both compute
// a verifiable result and produce a faithful memory-access profile.
type Array[T elem] struct {
	Data []T
	R    *Region
}

// NewArray allocates an n-element array under the given policy.
func NewArray[T elem](a *Allocator, name string, n int, pol Policy) *Array[T] {
	return &Array[T]{Data: make([]T, n), R: a.Alloc(name, bytesOf[T](n), pol)}
}

// Span converts an element range to a (byte offset, byte length) pair for
// Context.Read/Write.
func (x *Array[T]) Span(i, n int) (off, size int64) { return bytesOf[T](i), bytesOf[T](n) }

// Reuse backs the workload-input pool: a pooled workload instance keeps its
// Go data across runs but must re-register its regions with each run's
// fresh Allocator (regions carry first-touch page state, which is
// run-scoped). When old's length is n, Reuse keeps its data and binds a new
// region; otherwise it allocates a new array. Called in the same statement
// order as the first build, re-registration reproduces identical region
// base offsets, so a reused input is indistinguishable from a new one to
// the simulator.
func Reuse[T elem](old *Array[T], a *Allocator, name string, n int, pol Policy) *Array[T] {
	if old != nil && len(old.Data) == n {
		old.R = a.Alloc(name, bytesOf[T](n), pol)
		return old
	}
	return NewArray[T](a, name, n, pol)
}

// bytesOf is the byte size of n elements of T.
func bytesOf[T elem](n int) int64 {
	var zero T
	return int64(n) * int64(unsafe.Sizeof(zero))
}
