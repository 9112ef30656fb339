package workloads

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// charge charges a read (or, when write is set, a write) of elements
// [i, i+n) of x. It and chargeStrided are the workloads' only way to charge
// memory: they speak in elements, and x converts them to the bytes the
// Context takes.
func charge[T memory.Elem](ctx core.Context, x *memory.Array[T], i, n int, write bool) {
	off, size := x.Span(i, n)
	if write {
		ctx.Write(x.R, off, size)
	} else {
		ctx.Read(x.R, off, size)
	}
}

// chargeStrided charges count runs of w elements of x spaced stride
// elements apart, starting at element i: a matrix column or tile walk, or
// a regular gather.
func chargeStrided[T memory.Elem](ctx core.Context, x *memory.Array[T], i, stride, w, count int, write bool) {
	off, strideBytes, size := x.Strided(i, stride, w)
	if write {
		ctx.WriteStrided(x.R, off, strideBytes, size, count)
	} else {
		ctx.ReadStrided(x.R, off, strideBytes, size, count)
	}
}
