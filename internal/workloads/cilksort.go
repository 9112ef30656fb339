package workloads

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/memory"
)

// Cilksort is the paper's cilksort benchmark: a four-way parallel mergesort
// with parallel merge, structured exactly like Fig. 4's MERGESORTTOP — sort
// the four quarters in place (each earmarked for a virtual place in the
// aware configuration), merge pairs of quarters, then merge the halves.
type Cilksort struct {
	reusable
	refShared
	cfg  Config
	n    int
	base int

	in, tmp *memory.Array[int64]
	orig    []int64
	places  int
}

// NewCilksort builds a cilksort instance over n pseudo-random int64 keys
// with the given sequential base-case size.
func NewCilksort(n, base int, cfg Config) *Cilksort {
	if base < 8 {
		base = 8
	}
	return &Cilksort{cfg: cfg, n: n, base: base}
}

// Name implements Workload.
func (s *Cilksort) Name() string { return "cilksort" }

// Prepare implements Workload. In the aware configuration the quarters of
// both arrays are bound to the sockets of their designated places, the
// allocation pattern Fig. 4's commentary prescribes.
func (s *Cilksort) Prepare(rt *core.Runtime) {
	s.places = rt.Places()
	var pol memory.Policy = basePolicy()
	if s.cfg.Aware {
		sockets := make([]int, 4)
		for i := range sockets {
			sockets[i] = placeOf(i, 4, s.places)
		}
		pol = memory.BindBlocks{Blocks: 4, Sockets: sockets}
	}
	first := s.in == nil
	s.in = memory.Reuse(s.in, rt.Allocator(), "cilksort.in", s.n, pol)
	// tmp is never touched before the timed region: real first-touch under
	// the baseline, banded like `in` under the aware configuration.
	tmpPol := pol
	if !s.cfg.Aware {
		tmpPol = memory.FirstTouch{}
	}
	s.tmp = memory.Reuse(s.tmp, rt.Allocator(), "cilksort.tmp", s.n, tmpPol)
	if !first {
		// The run sorts in place; restore the pristine keys. tmp needs no
		// reset — every merge writes its segment before it is read.
		copy(s.in.Data, s.orig)
		return
	}
	r := newRNG(s.cfg.Seed)
	for i := range s.in.Data {
		s.in.Data[i] = r.int63()
	}
	s.orig = append([]int64(nil), s.in.Data...)
}

// Root implements Workload; it is MERGESORTTOP from Fig. 4.
func (s *Cilksort) Root() core.Task {
	return func(ctx core.Context) {
		n := s.n
		if n < s.base {
			s.quicksort(ctx, 0, n)
			return
		}
		q := n / 4
		// Virtual place ids, "initialized ... based on number of places".
		p0 := s.hint(0)
		p1, p2, p3 := s.hint(1), s.hint(2), s.hint(3)
		// Fig. 4 lines 6-10: sort the quarters; three spawns plus a plain
		// call for the last quarter, exactly as in the figure. The first
		// spawned child carries no explicit hint — with continuation
		// stealing it runs on the spawning worker, implicitly at p0.
		ctx.Spawn(func(c core.Context) { s.mergesort(c, 0, q) })
		s.spawnSortAt(ctx, p1, q, q)
		s.spawnSortAt(ctx, p2, 2*q, q)
		s.callSortAt(ctx, p3, 3*q, n-3*q)
		ctx.Sync()
		// Fig. 4 lines 11-14: merge quarter pairs into tmp (spawn @p0,
		// call @p2). The split point is 2*q, not n/2: for n % 4 >= 2 the
		// two differ by one and the figure's n/2 arithmetic assumes a
		// divisible n.
		mid := 2 * q
		if s.cfg.Aware {
			ctx.SpawnAt(p0, func(c core.Context) { s.parmerge(c, 0, q, q, mid, s.in, s.tmp, 0) })
		} else {
			ctx.Spawn(func(c core.Context) { s.parmerge(c, 0, q, q, mid, s.in, s.tmp, 0) })
		}
		s.callMergeAt(ctx, p2, mid, 3*q, 3*q, n, mid)
		ctx.Sync()
		// Fig. 4 line 15: final merge back into the input array, @ANY.
		if s.cfg.Aware {
			ctx.SetPlace(core.PlaceAny)
		}
		ctx.Call(func(c core.Context) { s.parmerge(c, 0, mid, mid, n, s.tmp, s.in, 0) })
	}
}

func (s *Cilksort) hint(i int) int {
	if !s.cfg.Aware {
		return core.PlaceAny
	}
	return placeOf(i, 4, s.places)
}

func (s *Cilksort) spawnSortAt(ctx core.Context, place, lo, n int) {
	if s.cfg.Aware && place != core.PlaceAny {
		ctx.SpawnAt(place, func(c core.Context) { s.mergesort(c, lo, lo+n) })
	} else {
		ctx.Spawn(func(c core.Context) { s.mergesort(c, lo, lo+n) })
	}
}

func (s *Cilksort) callSortAt(ctx core.Context, place, lo, n int) {
	ctx.Call(func(c core.Context) {
		if s.cfg.Aware && place != core.PlaceAny {
			c.SetPlace(place)
		}
		s.mergesort(c, lo, lo+n)
	})
}

func (s *Cilksort) callMergeAt(ctx core.Context, place, alo, ahi, blo, bhi, out int) {
	ctx.Call(func(c core.Context) {
		if s.cfg.Aware && place != core.PlaceAny {
			c.SetPlace(place)
		}
		s.parmerge(c, alo, ahi, blo, bhi, s.in, s.tmp, out)
	})
}

// mergesort sorts in.Data[lo:hi) in place, using tmp as scratch — the
// four-way recursion of the paper's MERGESORT (no locality hints below the
// top level; descendants inherit).
func (s *Cilksort) mergesort(ctx core.Context, lo, hi int) {
	n := hi - lo
	if n <= s.base {
		s.quicksort(ctx, lo, hi)
		return
	}
	q := n / 4
	ctx.Spawn(func(c core.Context) { s.mergesort(c, lo, lo+q) })
	ctx.Spawn(func(c core.Context) { s.mergesort(c, lo+q, lo+2*q) })
	ctx.Spawn(func(c core.Context) { s.mergesort(c, lo+2*q, lo+3*q) })
	ctx.Call(func(c core.Context) { s.mergesort(c, lo+3*q, hi) })
	ctx.Sync()
	ctx.Spawn(func(c core.Context) { s.parmerge(c, lo, lo+q, lo+q, lo+2*q, s.in, s.tmp, lo) })
	ctx.Call(func(c core.Context) { s.parmerge(c, lo+2*q, lo+3*q, lo+3*q, hi, s.in, s.tmp, lo+2*q) })
	ctx.Sync()
	ctx.Call(func(c core.Context) { s.parmerge(c, lo, lo+2*q, lo+2*q, hi, s.tmp, s.in, lo) })
}

// quicksort is the sequential base case ("in-place sequential sort"). The
// real sort runs on the slice; the model charges one read+write pass over
// the segment plus n log n comparison work.
func (s *Cilksort) quicksort(ctx core.Context, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	seg := s.in.Data[lo:hi]
	sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	charge(ctx, s.in, lo, n, false)
	charge(ctx, s.in, lo, n, true)
	logn := int64(1)
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	ctx.Compute(int64(n) * logn * 2)
}

// parmerge merges src[alo:ahi) and src[blo:bhi) into dst starting at out,
// splitting recursively: take the median of the larger run, binary-search
// its position in the smaller run, and merge the two halves in parallel.
func (s *Cilksort) parmerge(ctx core.Context, alo, ahi, blo, bhi int, src, dst *memory.Array[int64], out int) {
	na, nb := ahi-alo, bhi-blo
	if na < nb {
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
		na, nb = nb, na
	}
	if na == 0 {
		return
	}
	if na+nb <= s.base {
		s.seqmerge(ctx, alo, ahi, blo, bhi, src, dst, out)
		return
	}
	ma := (alo + ahi) / 2
	pivot := src.Data[ma]
	mb := blo + sort.Search(nb, func(i int) bool { return src.Data[blo+i] >= pivot })
	// Charge the binary search probes (log nb scattered reads).
	for probe := nb; probe > 0; probe >>= 1 {
		charge(ctx, src, blo, 1, false)
		ctx.Compute(2)
	}
	left := out
	right := out + (ma - alo) + (mb - blo)
	ctx.Spawn(func(c core.Context) { s.parmerge(c, alo, ma, blo, mb, src, dst, left) })
	ctx.Call(func(c core.Context) { s.parmerge(c, ma, ahi, mb, bhi, src, dst, right) })
	ctx.Sync()
}

// seqmerge is the sequential merge base case: real merge plus one streaming
// read of both inputs and one streaming write of the output.
func (s *Cilksort) seqmerge(ctx core.Context, alo, ahi, blo, bhi int, src, dst *memory.Array[int64], out int) {
	i, j, k := alo, blo, out
	for i < ahi && j < bhi {
		if src.Data[i] <= src.Data[j] {
			dst.Data[k] = src.Data[i]
			i++
		} else {
			dst.Data[k] = src.Data[j]
			j++
		}
		k++
	}
	for i < ahi {
		dst.Data[k] = src.Data[i]
		i, k = i+1, k+1
	}
	for j < bhi {
		dst.Data[k] = src.Data[j]
		j, k = j+1, k+1
	}
	if n := ahi - alo; n > 0 {
		charge(ctx, src, alo, n, false)
	}
	if n := bhi - blo; n > 0 {
		charge(ctx, src, blo, n, false)
	}
	if n := k - out; n > 0 {
		charge(ctx, dst, out, n, true)
		ctx.Compute(int64(n) * 3)
	}
}

// Verify implements Workload: the result must equal the independently
// sorted input, element for element.
func (s *Cilksort) Verify() error {
	v, _ := s.refCache().Do("cilksort.sorted", func() (any, error) {
		w := append([]int64(nil), s.orig...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		return w, nil
	})
	want := v.([]int64)
	for i, v := range s.in.Data {
		if v != want[i] {
			return fmt.Errorf("cilksort: element %d is %d, want %d", i, v, want[i])
		}
	}
	return nil
}
