package workloads

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/memory"
)

// Hull is the paper's hull benchmark (from the problem-based benchmark
// suite): quickhull over n points. "The algorithm works by repeatedly
// dividing up the space, drawing maximum triangles, and eliminating points
// inside the triangles." The parallel work is dominated by data-parallel
// passes — max-distance reductions and prefix-sum style packing — over index
// arrays.
//
// Two inputs reproduce the paper's hull1/hull2 split: InDisk scatters points
// inside a disk (points are eliminated quickly; the run is dominated by the
// packing passes, which "simply do not have much locality"), while OnCircle
// places every point on the hull (much more computation per point).
//
// The aware configuration bands the point and index arrays across sockets
// (spreading memory traffic) but deliberately sets no locality hints: the
// paper itself observes that hull's dominant phases "simply do not have much
// locality", and in this latency-only model hint-driven pushing costs more
// than the single-pass phases can recoup. EXPERIMENTS.md records this as a
// deviation: the paper's modest hull gains come from bandwidth spreading,
// which the substitution does not model.
type Hull struct {
	reusable
	refShared
	cfg     Config
	n       int
	grain   int
	circle  bool
	nameStr string

	x, y       *memory.Array[float64]
	idx        [2]*memory.Array[int32]
	flags      *memory.Array[int32]
	hullMark   []bool
	places     int
	partialCnt [][2]int // per-band reduction slots (root phases only)
	bands      int
}

type maxPartial struct {
	dist float64
	idx  int32
}

// Input selects the point distribution.
type Input int

// The two paper inputs.
const (
	// InDisk is hull1: points uniform in a disk.
	InDisk Input = iota
	// OnCircle is hull2: points on a circle (all points are hull vertices).
	OnCircle
)

// NewHull builds a quickhull instance with n points of the given input
// distribution; segments at or below grain are processed serially.
func NewHull(n, grain, bands int, input Input, cfg Config) *Hull {
	if grain < 64 {
		grain = 64
	}
	if bands < 1 {
		bands = 1
	}
	name := "hull1"
	if input == OnCircle {
		name = "hull2"
	}
	return &Hull{cfg: cfg, n: n, grain: grain, bands: bands,
		circle: input == OnCircle, nameStr: name}
}

// Name implements Workload.
func (h *Hull) Name() string { return h.nameStr }

// Prepare implements Workload.
func (h *Hull) Prepare(rt *core.Runtime) {
	h.places = rt.Places()
	alloc := rt.Allocator()
	pol := h.cfg.bandPolicy(h.places)
	first := h.x == nil
	h.x = memory.Reuse(h.x, alloc, h.nameStr+".x", h.n, pol)
	h.y = memory.Reuse(h.y, alloc, h.nameStr+".y", h.n, pol)
	// The index and flag buffers are pure scratch: first-touch under the
	// baseline, banded when aware.
	scratch := h.cfg.scratchPolicy(h.places)
	h.idx[0] = memory.Reuse(h.idx[0], alloc, h.nameStr+".idx0", h.n, scratch)
	h.idx[1] = memory.Reuse(h.idx[1], alloc, h.nameStr+".idx1", h.n, scratch)
	h.flags = memory.Reuse(h.flags, alloc, h.nameStr+".flags", h.n, scratch)
	if !first {
		// The points are read-only and the scratch buffers are written
		// before being read; only the accumulated hull marks need clearing.
		clear(h.hullMark)
		return
	}
	h.hullMark = make([]bool, h.n)
	h.partialCnt = make([][2]int, h.bands)

	rng := newRNG(h.cfg.Seed)
	for i := 0; i < h.n; i++ {
		theta := rng.float64() * 2 * math.Pi
		rad := 1.0
		if !h.circle {
			rad = math.Sqrt(rng.float64())
		}
		h.x.Data[i] = rad * math.Cos(theta)
		h.y.Data[i] = rad * math.Sin(theta)
	}
}

// cross computes the z of (b-a) x (p-a): positive iff p is strictly left of
// the directed line a -> b.
func (h *Hull) cross(a, b, p int32) float64 {
	ax, ay := h.x.Data[a], h.y.Data[a]
	return (h.x.Data[b]-ax)*(h.y.Data[p]-ay) - (h.y.Data[b]-ay)*(h.x.Data[p]-ax)
}

// chargePoint charges the gather reads of one point's coordinates.
func (h *Hull) chargePoint(ctx core.Context, p int32) {
	off, sz := h.x.Span(int(p), 1)
	ctx.Read(h.x.R, off, sz)
	off, sz = h.y.Span(int(p), 1)
	ctx.Read(h.y.R, off, sz)
}

// Root implements Workload.
func (h *Hull) Root() core.Task {
	return func(ctx core.Context) {
		// Phase 1: find the extreme points in x (banded reduction).
		spawnBands(ctx, h.bands, h.places, false, func(c core.Context, band int) {
			lo := band * h.n / h.bands
			hi := (band + 1) * h.n / h.bands
			minI, maxI := lo, lo
			for i := lo + 1; i < hi; i++ {
				if h.x.Data[i] < h.x.Data[minI] {
					minI = i
				}
				if h.x.Data[i] > h.x.Data[maxI] {
					maxI = i
				}
			}
			h.partialCnt[band] = [2]int{minI, maxI}
			off, sz := h.x.Span(lo, hi-lo)
			c.Read(h.x.R, off, sz)
			c.Compute(int64(hi-lo) * 2)
		})
		minI, maxI := h.partialCnt[0][0], h.partialCnt[0][1]
		for _, p := range h.partialCnt[1:] {
			if h.x.Data[p[0]] < h.x.Data[minI] {
				minI = p[0]
			}
			if h.x.Data[p[1]] > h.x.Data[maxI] {
				maxI = p[1]
			}
		}
		a, b := int32(minI), int32(maxI)
		h.hullMark[a] = true
		h.hullMark[b] = true

		// Phase 2: split all points into the upper side (left of a->b) and
		// lower side (left of b->a), packed into idx[0].
		nUp, nLo := h.packInit(ctx, a, b)

		// Phase 3: recursive quickhull on each side.
		src, dst := 0, 1
		ctx.Spawn(func(c core.Context) { h.rec(c, src, dst, 0, nUp, a, b) })
		ctx.Call(func(c core.Context) { h.rec(c, src, dst, nUp, nUp+nLo, b, a) })
		ctx.Sync()
	}
}

// packInit classifies every point against the a->b line and packs the two
// sides into idx[0]: upper side at [0, nUp), lower side at [nUp, nUp+nLo).
func (h *Hull) packInit(ctx core.Context, a, b int32) (nUp, nLo int) {
	// Pass 1: per-band counts.
	spawnBands(ctx, h.bands, h.places, false, func(c core.Context, band int) {
		lo := band * h.n / h.bands
		hi := (band + 1) * h.n / h.bands
		up, down := 0, 0
		for i := lo; i < hi; i++ {
			s := h.cross(a, b, int32(i))
			switch {
			case s > 0:
				h.flags.Data[i] = 1
				up++
			case s < 0:
				h.flags.Data[i] = 2
				down++
			default:
				h.flags.Data[i] = 0
			}
		}
		h.partialCnt[band] = [2]int{up, down}
		off, sz := h.x.Span(lo, hi-lo)
		c.Read(h.x.R, off, sz)
		off, sz = h.y.Span(lo, hi-lo)
		c.Read(h.y.R, off, sz)
		off, sz = h.flags.Span(lo, hi-lo)
		c.Write(h.flags.R, off, sz)
		c.Compute(int64(hi-lo) * 6)
	})
	// Serial prefix over band counts (h.bands entries, cheap).
	upBase := make([]int, h.bands)
	loBase := make([]int, h.bands)
	for band := 0; band < h.bands; band++ {
		upBase[band] = nUp
		loBase[band] = nLo
		nUp += h.partialCnt[band][0]
		nLo += h.partialCnt[band][1]
	}
	ctx.Compute(int64(h.bands) * 2)
	// Pass 2: scatter into the packed layout.
	total := nUp
	spawnBands(ctx, h.bands, h.places, false, func(c core.Context, band int) {
		lo := band * h.n / h.bands
		hi := (band + 1) * h.n / h.bands
		u, d := upBase[band], total+loBase[band]
		for i := lo; i < hi; i++ {
			switch h.flags.Data[i] {
			case 1:
				h.idx[0].Data[u] = int32(i)
				u++
			case 2:
				h.idx[0].Data[d] = int32(i)
				d++
			}
		}
		off, sz := h.flags.Span(lo, hi-lo)
		c.Read(h.flags.R, off, sz)
		if n := u - upBase[band]; n > 0 {
			off, sz = h.idx[0].Span(upBase[band], n)
			c.Write(h.idx[0].R, off, sz)
		}
		if n := d - (total + loBase[band]); n > 0 {
			off, sz = h.idx[0].Span(total+loBase[band], n)
			c.Write(h.idx[0].R, off, sz)
		}
		c.Compute(int64(hi-lo) * 2)
	})
	return nUp, nLo
}

// rec is one quickhull recursion step over idx[src][lo:hi), the points
// strictly left of a->b. It finds the farthest point f, packs the points
// outside a->f and f->b into idx[dst], and recurses with the buffers
// swapped.
func (h *Hull) rec(ctx core.Context, src, dst, lo, hi int, a, b int32) {
	count := hi - lo
	if count <= 0 {
		return
	}
	if count <= h.grain {
		// Small segment: finish this sub-hull entirely serially (matching
		// the base-case coarsening the paper's benchmarks apply — without
		// it, the fine-grained recursion drowns in scheduling time).
		h.recSerial(ctx, src, dst, lo, hi, a, b)
		return
	}
	in := h.idx[src]
	f := h.farthest(ctx, in, lo, hi, a, b)
	h.hullMark[f] = true

	out := h.idx[dst]
	n1, n2 := h.packParallel(ctx, in, out, lo, hi, a, b, f)
	ctx.Spawn(func(c core.Context) { h.rec(c, dst, src, lo, lo+n1, a, f) })
	ctx.Call(func(c core.Context) { h.rec(c, dst, src, hi-n2, hi, f, b) })
	ctx.Sync()
}

// recSerial finishes a sub-hull without spawning.
func (h *Hull) recSerial(ctx core.Context, src, dst, lo, hi int, a, b int32) {
	if hi-lo <= 0 {
		return
	}
	in, out := h.idx[src], h.idx[dst]
	best := maxPartial{dist: math.Inf(-1), idx: -1}
	for i := lo; i < hi; i++ {
		p := in.Data[i]
		d := h.cross(a, b, p)
		if d > best.dist || (d == best.dist && p < best.idx) {
			best = maxPartial{dist: d, idx: p}
		}
		h.chargePoint(ctx, p)
	}
	off, sz := in.Span(lo, hi-lo)
	ctx.Read(in.R, off, sz)
	ctx.Compute(int64(hi-lo) * 7)
	f := best.idx
	h.hullMark[f] = true
	n1, n2 := h.packSerial(ctx, in, out, lo, hi, a, b, f)
	h.recSerial(ctx, dst, src, lo, lo+n1, a, f)
	h.recSerial(ctx, dst, src, hi-n2, hi, f, b)
}

// farthest finds the point of idx[lo:hi) with the maximum cross distance
// from line a->b, ties broken toward the smaller index for determinism.
func (h *Hull) farthest(ctx core.Context, in *memory.Array[int32], lo, hi int, a, b int32) int32 {
	count := hi - lo
	scan := func(c core.Context, sLo, sHi int) maxPartial {
		best := maxPartial{dist: math.Inf(-1), idx: -1}
		for i := sLo; i < sHi; i++ {
			p := in.Data[i]
			d := h.cross(a, b, p)
			if d > best.dist || (d == best.dist && p < best.idx) {
				best = maxPartial{dist: d, idx: p}
			}
			h.chargePoint(c, p)
		}
		off, sz := in.Span(sLo, sHi-sLo)
		c.Read(in.R, off, sz)
		c.Compute(int64(sHi-sLo) * 7)
		return best
	}
	if count <= h.grain {
		return scan(ctx, lo, hi).idx
	}
	bands := h.bands
	if bands > count/h.grain {
		bands = count/h.grain + 1
	}
	// Per-call partial buffer: concurrent recursion branches each reduce
	// into their own scratch.
	partials := make([]maxPartial, bands)
	spawnBands(ctx, bands, h.places, false, func(c core.Context, band int) {
		sLo := lo + band*count/bands
		sHi := lo + (band+1)*count/bands
		partials[band] = scan(c, sLo, sHi)
	})
	best := partials[0]
	for _, p := range partials[1:bands] {
		if p.dist > best.dist || (p.dist == best.dist && p.idx < best.idx) {
			best = p
		}
	}
	return best.idx
}

// packSerial partitions in[lo:hi) against the two new lines in one pass.
func (h *Hull) packSerial(ctx core.Context, in, out *memory.Array[int32], lo, hi int, a, b, f int32) (n1, n2 int) {
	u, d := lo, hi
	for i := lo; i < hi; i++ {
		p := in.Data[i]
		if p == f {
			continue
		}
		if h.cross(a, f, p) > 0 {
			out.Data[u] = p
			u++
		} else if h.cross(f, b, p) > 0 {
			d--
			out.Data[d] = p
		}
		h.chargePoint(ctx, p)
	}
	// The right side was packed in reverse; restore order for determinism.
	for i, j := d, hi-1; i < j; i, j = i+1, j-1 {
		out.Data[i], out.Data[j] = out.Data[j], out.Data[i]
	}
	off, sz := in.Span(lo, hi-lo)
	ctx.Read(in.R, off, sz)
	if u > lo {
		off, sz = out.Span(lo, u-lo)
		ctx.Write(out.R, off, sz)
	}
	if hi > d {
		off, sz = out.Span(d, hi-d)
		ctx.Write(out.R, off, sz)
	}
	ctx.Compute(int64(hi-lo) * 10)
	return u - lo, hi - d
}

// packParallel is the two-pass banded pack for large segments.
func (h *Hull) packParallel(ctx core.Context, in, out *memory.Array[int32], lo, hi int, a, b, f int32) (n1, n2 int) {
	count := hi - lo
	bands := h.bands
	if bands > count/h.grain {
		bands = count/h.grain + 1
	}
	type cnt struct{ left, right int }
	counts := make([]cnt, bands)
	// Pass 1: classify and count.
	spawnBands(ctx, bands, h.places, false, func(c core.Context, band int) {
		sLo := lo + band*count/bands
		sHi := lo + (band+1)*count/bands
		var k cnt
		for i := sLo; i < sHi; i++ {
			p := in.Data[i]
			switch {
			case p == f:
				h.flags.Data[i] = 0
			case h.cross(a, f, p) > 0:
				h.flags.Data[i] = 1
				k.left++
			case h.cross(f, b, p) > 0:
				h.flags.Data[i] = 2
				k.right++
			default:
				h.flags.Data[i] = 0
			}
			h.chargePoint(c, p)
		}
		counts[band] = k
		off, sz := in.Span(sLo, sHi-sLo)
		c.Read(in.R, off, sz)
		off, sz = h.flags.Span(sLo, sHi-sLo)
		c.Write(h.flags.R, off, sz)
		c.Compute(int64(sHi-sLo) * 12)
	})
	leftBase := make([]int, bands)
	rightBase := make([]int, bands)
	for band := 0; band < bands; band++ {
		leftBase[band] = n1
		rightBase[band] = n2
		n1 += counts[band].left
		n2 += counts[band].right
	}
	ctx.Compute(int64(bands) * 2)
	// Pass 2: scatter. Left side packs forward from lo; right side packs
	// forward into [hi-n2, hi).
	rBase := hi - n2
	spawnBands(ctx, bands, h.places, false, func(c core.Context, band int) {
		sLo := lo + band*count/bands
		sHi := lo + (band+1)*count/bands
		u := lo + leftBase[band]
		d := rBase + rightBase[band]
		for i := sLo; i < sHi; i++ {
			switch h.flags.Data[i] {
			case 1:
				out.Data[u] = in.Data[i]
				u++
			case 2:
				out.Data[d] = in.Data[i]
				d++
			}
		}
		off, sz := h.flags.Span(sLo, sHi-sLo)
		c.Read(h.flags.R, off, sz)
		off, sz = in.Span(sLo, sHi-sLo)
		c.Read(in.R, off, sz)
		if k := u - (lo + leftBase[band]); k > 0 {
			off, sz = out.Span(lo+leftBase[band], k)
			c.Write(out.R, off, sz)
		}
		if k := d - (rBase + rightBase[band]); k > 0 {
			off, sz = out.Span(rBase+rightBase[band], k)
			c.Write(out.R, off, sz)
		}
		c.Compute(int64(sHi-sLo) * 3)
	})
	return n1, n2
}

// Verify implements Workload: the marked points must be exactly the hull of
// the input, as computed by an independent Andrew's monotone chain.
func (h *Hull) Verify() error {
	v, _ := h.refCache().Do(h.nameStr+".hull", func() (any, error) {
		want := map[int32]bool{}
		for _, i := range monotoneChain(h.x.Data, h.y.Data) {
			want[i] = true
		}
		return want, nil
	})
	want := v.(map[int32]bool) // read-only once cached
	var got []int32
	for i, m := range h.hullMark {
		if m {
			got = append(got, int32(i))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: found %d hull points, reference has %d", h.nameStr, len(got), len(want))
	}
	for _, i := range got {
		if !want[i] {
			return fmt.Errorf("%s: point %d marked but not on reference hull", h.nameStr, i)
		}
	}
	return nil
}

// monotoneChain computes convex hull indices (strict: collinear boundary
// points excluded) in O(n log n).
func monotoneChain(xs, ys []float64) []int32 {
	n := len(xs)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		return ys[a] < ys[b]
	})
	cross := func(o, a, b int32) float64 {
		return (xs[a]-xs[o])*(ys[b]-ys[o]) - (ys[a]-ys[o])*(xs[b]-xs[o])
	}
	var hull []int32
	for _, p := range order { // lower
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- { // upper
		p := order[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}
