package workloads

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memory"
)

// Rectmul is the classic Cilk rectmul benchmark: C += A * B on
// rectangular matrices (C is m x n, A is m x p, B is p x n), dividing the
// largest dimension in half at every level. Splitting m or n yields two
// independent halves that run in parallel; splitting p yields two updates
// of the same C that must serialize — so unlike matmul's fixed eight-way
// shape, the dag's fan-out pattern is input-shape-dependent, alternating
// parallel and forced-serial levels as the recursion squares the tile.
//
// Like matmul and strassen, rectmul uses no locality hints on either
// platform; the aware flag is dropped by the suite registration.
type Rectmul struct {
	reusable
	refShared
	cfg     Config
	m, p, n int // C is m x n, A is m x p, B is p x n
	base    int

	a, b, c *memory.Array[float64]
	places  int
}

// NewRectmul builds an (m x p) by (p x n) multiply recursing down to
// base-sized tiles (dimensions are rounded up to a multiple of base).
func NewRectmul(m, p, n, base int, cfg Config) *Rectmul {
	if base < 4 {
		base = 4
	}
	round := func(v int) int {
		if v < base {
			return base
		}
		if rem := v % base; rem != 0 {
			v += base - rem
		}
		return v
	}
	return &Rectmul{cfg: cfg, m: round(m), p: round(p), n: round(n), base: base}
}

// Name implements Workload.
func (r *Rectmul) Name() string { return "rectmul" }

// Prepare implements Workload.
func (r *Rectmul) Prepare(rt *core.Runtime) {
	r.places = rt.Places()
	pol := basePolicy()
	first := r.a == nil
	r.a = memory.Reuse(r.a, rt.Allocator(), "rectmul.A", r.m*r.p, pol)
	r.b = memory.Reuse(r.b, rt.Allocator(), "rectmul.B", r.p*r.n, pol)
	r.c = memory.Reuse(r.c, rt.Allocator(), "rectmul.C", r.m*r.n, pol)
	if !first {
		// C += A*B accumulates; reuse starts from zero again.
		clear(r.c.Data)
		return
	}
	rng := newRNG(r.cfg.Seed)
	for i := range r.a.Data {
		r.a.Data[i] = 2*rng.float64() - 1
	}
	for i := range r.b.Data {
		r.b.Data[i] = 2*rng.float64() - 1
	}
}

// Root implements Workload.
func (r *Rectmul) Root() core.Task {
	return func(ctx core.Context) {
		r.rec(ctx, 0, 0, 0, r.m, r.p, r.n)
	}
}

// rec computes C[cr:cr+m, cc:cc+n] += A[cr:cr+m, ak:ak+p] * B[ak:ak+p,
// cc:cc+n], halving the largest dimension. (cr, cc, ak) locate the tile:
// row offset in C and A, column offset in C and B, and the shared inner
// offset in A's columns and B's rows.
func (r *Rectmul) rec(ctx core.Context, cr, cc, ak, m, p, n int) {
	if m <= r.base && p <= r.base && n <= r.base {
		r.baseMul(ctx, cr, cc, ak, m, p, n)
		return
	}
	switch {
	case m >= p && m >= n:
		h := m / 2
		ctx.Spawn(func(c core.Context) { r.rec(c, cr, cc, ak, h, p, n) })
		ctx.Call(func(c core.Context) { r.rec(c, cr+h, cc, ak, m-h, p, n) })
		ctx.Sync()
	case n >= p:
		h := n / 2
		ctx.Spawn(func(c core.Context) { r.rec(c, cr, cc, ak, m, p, h) })
		ctx.Call(func(c core.Context) { r.rec(c, cr, cc+h, ak, m, p, n-h) })
		ctx.Sync()
	default:
		// Splitting the inner dimension: both halves update the same C
		// tile, so they serialize — the data dependence matmul expresses
		// with its two sync'd four-spawn phases.
		h := p / 2
		ctx.Call(func(c core.Context) { r.rec(c, cr, cc, ak, m, h, n) })
		ctx.Call(func(c core.Context) { r.rec(c, cr, cc, ak+h, m, p-h, n) })
	}
}

// baseMul is the sequential tile multiply-accumulate with tile-shaped
// strided access charges.
func (r *Rectmul) baseMul(ctx core.Context, cr, cc, ak, m, p, n int) {
	for i := 0; i < m; i++ {
		arow := r.a.Data[(cr+i)*r.p:]
		crow := r.c.Data[(cr+i)*r.n:]
		for k := 0; k < p; k++ {
			av := arow[ak+k]
			brow := r.b.Data[(ak+k)*r.n:]
			for j := 0; j < n; j++ {
				crow[cc+j] += av * brow[cc+j]
			}
		}
	}
	ctx.ReadStrided(r.a.R, int64(cr*r.p+ak)*8, int64(r.p)*8, int64(p)*8, m)
	ctx.ReadStrided(r.b.R, int64(ak*r.n+cc)*8, int64(r.n)*8, int64(n)*8, p)
	ctx.ReadStrided(r.c.R, int64(cr*r.n+cc)*8, int64(r.n)*8, int64(n)*8, m)
	ctx.WriteStrided(r.c.R, int64(cr*r.n+cc)*8, int64(r.n)*8, int64(n)*8, m)
	ctx.Compute(int64(m) * int64(p) * int64(n))
}

// Verify implements Workload: compare against a plain serial triple loop
// over the same inputs.
func (r *Rectmul) Verify() error {
	v, _ := r.refCache().Do("rectmul.ref", func() (any, error) {
		ref := make([]float64, r.m*r.n)
		for i := 0; i < r.m; i++ {
			for k := 0; k < r.p; k++ {
				av := r.a.Data[i*r.p+k]
				brow := r.b.Data[k*r.n:]
				refRow := ref[i*r.n:]
				for j := 0; j < r.n; j++ {
					refRow[j] += av * brow[j]
				}
			}
		}
		return ref, nil
	})
	ref := v.([]float64)
	tol := 1e-10 * float64(r.p)
	for i := 0; i < r.m; i++ {
		for j := 0; j < r.n; j++ {
			got, want := r.c.Data[i*r.n+j], ref[i*r.n+j]
			if math.Abs(got-want) > tol {
				return fmt.Errorf("rectmul: C[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}
