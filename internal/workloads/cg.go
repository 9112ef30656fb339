package workloads

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/memory"
)

// CG is the paper's cg benchmark (from the NAS parallel benchmarks):
// conjugate-gradient iterations on a sparse matrix in CSR form. The
// expensive kernel is the sparse matrix-vector product, whose gather reads
// of the direction vector are the NUMA pain point: matrix rows stream
// locally when banded, but p[col] gathers hop sockets under the baseline
// placement.
type CG struct {
	reusable
	refShared
	cfg   Config
	n     int
	nzRow int
	iters int
	bands int

	rowptr *memory.Array[int32]
	colidx *memory.Array[int32]
	vals   *memory.Array[float64]
	b      *memory.Array[float64]
	x      *memory.Array[float64]
	r      *memory.Array[float64]
	p      *memory.Array[float64]
	q      *memory.Array[float64]

	partial []float64 // per-band reduction slots (scheduler-independent order)
	places  int
}

// NewCG builds an n-row system with nzRow nonzeros per row, run for a fixed
// iteration count (fixed, so work is identical across schedulers).
func NewCG(n, nzRow, iters, bands int, cfg Config) *CG {
	if bands < 1 {
		bands = 1
	}
	return &CG{cfg: cfg, n: n, nzRow: nzRow, iters: iters, bands: bands}
}

// Name implements Workload.
func (g *CG) Name() string { return "cg" }

// Prepare implements Workload: build a diagonally dominant sparse matrix
// with mostly-banded structure plus long-range couplings (the pattern that
// makes the gathers hurt), and the CG vectors.
func (g *CG) Prepare(rt *core.Runtime) {
	g.places = rt.Places()
	alloc := rt.Allocator()
	pol := g.cfg.bandPolicy(g.places)
	nnzPol := pol
	if g.cfg.Aware {
		// Matrix arrays are nnz-sized; band them the same way (row i's
		// nonzeros live at i*nzRow, so bands align with row bands).
		nnzPol = g.cfg.bandPolicy(g.places)
	}
	// On reuse, the memory.Reuse calls re-register every region in
	// first-build statement order (identical base offsets) and the
	// generated matrix and b carry over; the CG vectors need no reset —
	// the run fully writes them (x=0/r=b/p=b up front, q by the first
	// spmv) before reading.
	first := g.rowptr == nil
	g.rowptr = memory.Reuse(g.rowptr, alloc, "cg.rowptr", g.n+1, pol)
	g.colidx = memory.Reuse(g.colidx, alloc, "cg.colidx", g.n*g.nzRow, nnzPol)
	g.vals = memory.Reuse(g.vals, alloc, "cg.vals", g.n*g.nzRow, nnzPol)
	g.b = memory.Reuse(g.b, alloc, "cg.b", g.n, pol)
	// The CG vectors are first written inside the timed region (x = 0,
	// r = b, ...), so the baseline gets genuine first-touch for them.
	scratch := g.cfg.scratchPolicy(g.places)
	g.x = memory.Reuse(g.x, alloc, "cg.x", g.n, scratch)
	g.r = memory.Reuse(g.r, alloc, "cg.r", g.n, scratch)
	g.p = memory.Reuse(g.p, alloc, "cg.p", g.n, scratch)
	g.q = memory.Reuse(g.q, alloc, "cg.q", g.n, scratch)
	if !first {
		return
	}
	g.partial = make([]float64, g.bands)

	rng := newRNG(g.cfg.Seed)
	window := g.n / 16
	if window < 4 {
		window = 4
	}
	for i := 0; i < g.n; i++ {
		g.rowptr.Data[i] = int32(i * g.nzRow)
		cols := map[int]bool{i: true}
		for len(cols) < g.nzRow {
			var c int
			if rng.intn(4) == 0 { // 25% long-range couplings
				c = rng.intn(g.n)
			} else {
				c = i - window + rng.intn(2*window+1)
			}
			if c < 0 || c >= g.n {
				continue
			}
			cols[c] = true
		}
		sorted := make([]int, 0, g.nzRow)
		for c := range cols {
			sorted = append(sorted, c)
		}
		sort.Ints(sorted)
		var offdiag float64
		base := i * g.nzRow
		for k, c := range sorted {
			g.colidx.Data[base+k] = int32(c)
			if c == i {
				continue // fill the diagonal after the off-diagonal sum is known
			}
			v := rng.float64() - 0.5
			g.vals.Data[base+k] = v
			offdiag += math.Abs(v)
		}
		for k, c := range sorted {
			if c == i {
				g.vals.Data[base+k] = offdiag + 1 // diagonal dominance
			}
		}
		g.b.Data[i] = rng.float64()
	}
	g.rowptr.Data[g.n] = int32(g.n * g.nzRow)
}

// Root implements Workload: fixed-iteration CG.
func (g *CG) Root() core.Task {
	return func(ctx core.Context) {
		n := g.n
		// x = 0; r = b; p = r.
		spawnBands(ctx, g.bands, g.places, g.cfg.Aware, func(c core.Context, band int) {
			lo, hi := g.bandRange(band)
			for i := lo; i < hi; i++ {
				g.x.Data[i] = 0
				g.r.Data[i] = g.b.Data[i]
				g.p.Data[i] = g.b.Data[i]
			}
			g.chargeVec(c, band, g.b, false)
			g.chargeVec(c, band, g.x, true)
			g.chargeVec(c, band, g.r, true)
			g.chargeVec(c, band, g.p, true)
		})
		rr := g.dot(ctx, g.r, g.r)
		for it := 0; it < g.iters; it++ {
			g.spmv(ctx)
			pq := g.dot(ctx, g.p, g.q)
			alpha := rr / pq
			// x += alpha p; r -= alpha q.
			spawnBands(ctx, g.bands, g.places, g.cfg.Aware, func(c core.Context, band int) {
				lo, hi := g.bandRange(band)
				for i := lo; i < hi; i++ {
					g.x.Data[i] += alpha * g.p.Data[i]
					g.r.Data[i] -= alpha * g.q.Data[i]
				}
				g.chargeVec(c, band, g.p, false)
				g.chargeVec(c, band, g.q, false)
				g.chargeVec(c, band, g.x, true)
				g.chargeVec(c, band, g.r, true)
				c.Compute(int64(hi-lo) * 4)
			})
			rr2 := g.dot(ctx, g.r, g.r)
			beta := rr2 / rr
			rr = rr2
			// p = r + beta p.
			spawnBands(ctx, g.bands, g.places, g.cfg.Aware, func(c core.Context, band int) {
				lo, hi := g.bandRange(band)
				for i := lo; i < hi; i++ {
					g.p.Data[i] = g.r.Data[i] + beta*g.p.Data[i]
				}
				g.chargeVec(c, band, g.r, false)
				g.chargeVec(c, band, g.p, true)
				c.Compute(int64(hi-lo) * 2)
			})
		}
		_ = n
	}
}

func (g *CG) bandRange(band int) (int, int) {
	return band * g.n / g.bands, (band + 1) * g.n / g.bands
}

func (g *CG) chargeVec(ctx core.Context, band int, v *memory.Array[float64], write bool) {
	lo, hi := g.bandRange(band)
	off, size := v.Span(lo, hi-lo)
	if write {
		ctx.Write(v.R, off, size)
	} else {
		ctx.Read(v.R, off, size)
	}
}

// spmv computes q = A p in parallel over row bands. Matrix data streams;
// p[col] is a per-element gather.
func (g *CG) spmv(ctx core.Context) {
	spawnBands(ctx, g.bands, g.places, g.cfg.Aware, func(c core.Context, band int) {
		lo, hi := g.bandRange(band)
		for i := lo; i < hi; i++ {
			s := 0.0
			for k := int(g.rowptr.Data[i]); k < int(g.rowptr.Data[i+1]); k++ {
				col := int(g.colidx.Data[k])
				s += g.vals.Data[k] * g.p.Data[col]
				// The gather read: one element of p, wherever it lives.
				off, sz := g.p.Span(col, 1)
				c.Read(g.p.R, off, sz)
			}
			g.q.Data[i] = s
		}
		rows := hi - lo
		off, sz := g.rowptr.Span(lo, rows+1)
		c.Read(g.rowptr.R, off, sz)
		off, sz = g.colidx.Span(lo*g.nzRow, rows*g.nzRow)
		c.Read(g.colidx.R, off, sz)
		voff, vsz := g.vals.Span(lo*g.nzRow, rows*g.nzRow)
		c.Read(g.vals.R, voff, vsz)
		g.chargeVec(c, band, g.q, true)
		c.Compute(int64(rows) * int64(g.nzRow) * 2)
	})
}

// dot computes a scheduler-independent dot product: per-band partials
// combined in band order.
func (g *CG) dot(ctx core.Context, a, b *memory.Array[float64]) float64 {
	spawnBands(ctx, g.bands, g.places, g.cfg.Aware, func(c core.Context, band int) {
		lo, hi := g.bandRange(band)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a.Data[i] * b.Data[i]
		}
		g.partial[band] = s
		g.chargeVec(c, band, a, false)
		g.chargeVec(c, band, b, false)
		c.Compute(int64(hi-lo) * 2)
	})
	var sum float64
	for _, s := range g.partial {
		sum += s
	}
	ctx.Compute(int64(g.bands))
	return sum
}

// Verify implements Workload: rerun the same banded algorithm serially in
// plain Go (identical floating-point grouping) and compare x exactly, then
// sanity-check that CG actually reduced the residual. The reference solve
// depends only on the input data, so pooled instances compute it once and
// share it.
func (g *CG) Verify() error {
	n := g.n
	v, err := g.refCache().Do("cg.x", func() (any, error) {
		x := make([]float64, n)
		r := make([]float64, n)
		p := make([]float64, n)
		q := make([]float64, n)
		copy(r, g.b.Data)
		copy(p, g.b.Data)
		dot := func(a, b []float64) float64 {
			var sum float64
			for band := 0; band < g.bands; band++ {
				lo, hi := g.bandRange(band)
				s := 0.0
				for i := lo; i < hi; i++ {
					s += a[i] * b[i]
				}
				sum += s
			}
			return sum
		}
		rr := dot(r, r)
		rr0 := rr
		for it := 0; it < g.iters; it++ {
			for i := 0; i < n; i++ {
				s := 0.0
				for k := int(g.rowptr.Data[i]); k < int(g.rowptr.Data[i+1]); k++ {
					s += g.vals.Data[k] * p[int(g.colidx.Data[k])]
				}
				q[i] = s
			}
			alpha := rr / dot(p, q)
			for i := 0; i < n; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
			}
			rr2 := dot(r, r)
			beta := rr2 / rr
			rr = rr2
			for i := 0; i < n; i++ {
				p[i] = r[i] + beta*p[i]
			}
		}
		if rr >= rr0 {
			return nil, fmt.Errorf("cg: residual did not decrease: %g -> %g", rr0, rr)
		}
		return x, nil
	})
	if err != nil {
		return err
	}
	x := v.([]float64)
	for i := 0; i < n; i++ {
		if x[i] != g.x.Data[i] {
			return fmt.Errorf("cg: x[%d] = %g, want %g (bitwise)", i, g.x.Data[i], x[i])
		}
	}
	return nil
}
