package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/memory"
)

// Strassen is the paper's strassen benchmark: matrix multiplication that
// "performs seven recursive matrix multiplications and a bunch of
// additions". Temporaries for the quadrant sums and the seven products are
// preallocated as a tree in Prepare, so parallel branches never contend.
//
// Per the paper, strassen uses no locality hints even on NUMA-WS:
// "Sub-matrices of the inputs are used in different parts of the
// computation, and thus the data necessarily has to be accessed by multiple
// sockets." The Aware flag therefore only selects the allocation policy of
// the inputs. The Z variant (strassen-z) applies the blocked Z-Morton
// layout to inputs, output, and temporaries.
type Strassen struct {
	reusable
	refShared
	cfg   Config
	n     int
	base  int
	zkind bool

	a, b, c *layout.Matrix
	temps   *stNode
	places  int
	alloc   *memory.Allocator
	nameCtr int

	// mats records every matrix in first-build order so a reused instance
	// can rebind the same matrices to a fresh allocator: newMatrix is
	// deterministic, so replaying it yields the same names in the same
	// order and the pooled instance reproduces the first run's layout.
	mats []*layout.Matrix
	matI int
}

// stNode holds one recursion level's temporaries: five A-side sums, five
// B-side sums, seven products, and the children for the recursive products.
type stNode struct {
	s    [5]*layout.Matrix
	t    [5]*layout.Matrix
	m    [7]*layout.Matrix
	kids [7]*stNode
}

// NewStrassen builds an n x n Strassen multiply recursing down to base; z
// selects the blocked Z-Morton variant.
func NewStrassen(n, base int, z bool, cfg Config) *Strassen {
	return &Strassen{cfg: cfg, n: n, base: base, zkind: z}
}

// Name implements Workload.
func (s *Strassen) Name() string {
	if s.zkind {
		return "strassen-z"
	}
	return "strassen"
}

// Prepare implements Workload.
func (s *Strassen) Prepare(rt *core.Runtime) {
	s.places = rt.Places()
	s.alloc = rt.Allocator()
	first := len(s.mats) == 0
	s.nameCtr = 0
	s.matI = 0
	s.a = s.newMatrix("A", s.n)
	s.b = s.newMatrix("B", s.n)
	s.c = s.newMatrix("C", s.n)
	s.temps = s.buildTemps(s.n)
	// No data reset on reuse: A and B are read-only during the run, and
	// every cell of C and of the temporaries is written (set, not
	// accumulated) before it is read.
	if first {
		s.a.FillRandom(s.cfg.Seed)
		s.b.FillRandom(s.cfg.Seed + 1)
	}
}

func (s *Strassen) newMatrix(what string, n int) *layout.Matrix {
	kind, block := layout.RowMajor, 0
	if s.zkind && n >= s.base && n%s.base == 0 {
		kind, block = layout.BlockedMorton, s.base
	}
	s.nameCtr++
	name := fmt.Sprintf("%s.%s%d.%d", s.Name(), what, n, s.nameCtr)
	pol := s.cfg.basePolicy()
	if what == "S" || what == "T" || what == "M" {
		// Temporaries are heap allocations a real runtime first-touches on
		// the worker that computes them — naturally distributed.
		pol = memory.FirstTouch{}
	}
	if s.matI < len(s.mats) {
		m := s.mats[s.matI]
		s.matI++
		m.Rebind(s.alloc, name, pol)
		return m
	}
	m := layout.NewMatrix(s.alloc, name, n, kind, block, pol)
	s.mats = append(s.mats, m)
	s.matI++
	return m
}

func (s *Strassen) buildTemps(n int) *stNode {
	if n <= s.base {
		return nil
	}
	h := n / 2
	node := &stNode{}
	for i := 0; i < 5; i++ {
		node.s[i] = s.newMatrix("S", h)
		node.t[i] = s.newMatrix("T", h)
	}
	for i := 0; i < 7; i++ {
		node.m[i] = s.newMatrix("M", h)
		node.kids[i] = s.buildTemps(h)
	}
	return node
}

// view is a square sub-matrix window.
type view struct {
	m      *layout.Matrix
	r0, c0 int
	n      int
}

func whole(m *layout.Matrix) view { return view{m: m, n: m.N} }

func (v view) quad(qr, qc int) view {
	h := v.n / 2
	return view{m: v.m, r0: v.r0 + qr*h, c0: v.c0 + qc*h, n: h}
}

func (v view) at(r, c int) float64     { return v.m.At(v.r0+r, v.c0+c) }
func (v view) set(r, c int, x float64) { v.m.Set(v.r0+r, v.c0+c, x) }

// chargeRow charges an access to the length-v.n row r of the view, split at
// block boundaries for blocked layouts.
func (v view) chargeRow(ctx core.Context, r int, write bool) {
	row, col, w := v.r0+r, v.c0, v.n
	if v.m.Kind == layout.BlockedMorton {
		b := v.m.Block
		for w > 0 {
			chunk := b - col%b
			if chunk > w {
				chunk = w
			}
			off, size := v.m.RowSpan(row, col, chunk)
			if write {
				ctx.Write(v.m.R, off, size)
			} else {
				ctx.Read(v.m.R, off, size)
			}
			col += chunk
			w -= chunk
		}
		return
	}
	off, size := v.m.RowSpan(row, col, w)
	if write {
		ctx.Write(v.m.R, off, size)
	} else {
		ctx.Read(v.m.R, off, size)
	}
}

// Root implements Workload.
func (s *Strassen) Root() core.Task {
	return func(ctx core.Context) {
		s.mul(ctx, whole(s.c), whole(s.a), whole(s.b), s.temps)
	}
}

// mul computes C = A * B by Strassen recursion.
func (s *Strassen) mul(ctx core.Context, c, a, b view, node *stNode) {
	if c.n <= s.base {
		s.baseMul(ctx, c, a, b)
		return
	}
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)
	s1, s2, s3, s4, s5 := whole(node.s[0]), whole(node.s[1]), whole(node.s[2]), whole(node.s[3]), whole(node.s[4])
	t1, t2, t3, t4, t5 := whole(node.t[0]), whole(node.t[1]), whole(node.t[2]), whole(node.t[3]), whole(node.t[4])

	// The "bunch of additions": ten quadrant sums, in parallel.
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, s1, a11, a22, false) }) // S1 = A11+A22
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, s2, a21, a22, false) }) // S2 = A21+A22
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, s3, a11, a12, false) }) // S3 = A11+A12
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, s4, a21, a11, true) })  // S4 = A21-A11
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, s5, a12, a22, true) })  // S5 = A12-A22
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, t1, b11, b22, false) }) // T1 = B11+B22
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, t2, b12, b22, true) })  // T2 = B12-B22
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, t3, b21, b11, true) })  // T3 = B21-B11
	ctx.Spawn(func(cc core.Context) { s.addSub(cc, t4, b11, b12, false) }) // T4 = B11+B12
	ctx.Call(func(cc core.Context) { s.addSub(cc, t5, b21, b22, false) })  // T5 = B21+B22
	ctx.Sync()

	// The seven recursive products, in parallel.
	m1, m2, m3, m4 := whole(node.m[0]), whole(node.m[1]), whole(node.m[2]), whole(node.m[3])
	m5, m6, m7 := whole(node.m[4]), whole(node.m[5]), whole(node.m[6])
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m1, s1, t1, node.kids[0]) }) // M1 = S1*T1
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m2, s2, b11, node.kids[1]) })
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m3, a11, t2, node.kids[2]) })
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m4, a22, t3, node.kids[3]) })
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m5, s3, b22, node.kids[4]) })
	ctx.Spawn(func(cc core.Context) { s.mul(cc, m6, s4, t4, node.kids[5]) })
	ctx.Call(func(cc core.Context) { s.mul(cc, m7, s5, t5, node.kids[6]) })
	ctx.Sync()

	// Combine into the C quadrants, in parallel.
	c11, c12, c21, c22 := c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1)
	ctx.Spawn(func(cc core.Context) { // C11 = M1 + M4 - M5 + M7
		s.combine(cc, c11, []view{m1, m4, m5, m7}, []float64{1, 1, -1, 1})
	})
	ctx.Spawn(func(cc core.Context) { // C12 = M3 + M5
		s.combine(cc, c12, []view{m3, m5}, []float64{1, 1})
	})
	ctx.Spawn(func(cc core.Context) { // C21 = M2 + M4
		s.combine(cc, c21, []view{m2, m4}, []float64{1, 1})
	})
	// C22 = M1 - M2 + M3 + M6
	ctx.Call(func(cc core.Context) {
		s.combine(cc, c22, []view{m1, m2, m3, m6}, []float64{1, -1, 1, 1})
	})
	ctx.Sync()
}

// blockwise reports whether every view is block-aligned on a BlockedMorton
// matrix with a common block size, in which case elementwise passes should
// iterate block by block: each block is one contiguous, streamable span
// (iterating such matrices row-wise would fragment every row into
// block-width pieces — precisely the access pattern the layout
// transformation exists to avoid).
func blockwise(vs ...view) (int, bool) {
	b := 0
	for _, v := range vs {
		if v.m.Kind != layout.BlockedMorton {
			return 0, false
		}
		if b == 0 {
			b = v.m.Block
		}
		if v.m.Block != b || v.r0%b != 0 || v.c0%b != 0 || v.n%b != 0 {
			return 0, false
		}
	}
	return b, true
}

// chargeBlock charges one whole-block access of the b x b tile at (r, c) of
// the view.
func (v view) chargeBlock(ctx core.Context, r, c int, write bool) {
	off, size := v.m.BlockSpan(v.r0+r, v.c0+c)
	if write {
		ctx.Write(v.m.R, off, size)
	} else {
		ctx.Read(v.m.R, off, size)
	}
}

// block returns the b x b layout block at (r, c) of a blockwise view as
// one slice: a whole block's rows are back to back (its Tile stride is b).
func (v view) block(r, c, b int) []float64 {
	off, _ := v.m.Tile(v.r0+r, v.c0+c, b)
	return v.m.Data[off : off+b*b]
}

// addSub computes dst = x + y (or x - y), parallel over row bands (or block
// rows for blocked layouts).
func (s *Strassen) addSub(ctx core.Context, dst, x, y view, sub bool) {
	apply := func(r, j int) {
		if sub {
			dst.set(r, j, x.at(r, j)-y.at(r, j))
		} else {
			dst.set(r, j, x.at(r, j)+y.at(r, j))
		}
	}
	if b, ok := blockwise(dst, x, y); ok {
		nb := dst.n / b
		core.SpawnRange(ctx, 0, nb, 1, func(c core.Context, lo, hi int) {
			for br := lo; br < hi; br++ {
				for bc := 0; bc < nb; bc++ {
					d, xs, ys := dst.block(br*b, bc*b, b), x.block(br*b, bc*b, b), y.block(br*b, bc*b, b)
					if sub {
						for i := range d {
							d[i] = xs[i] - ys[i]
						}
					} else {
						for i := range d {
							d[i] = xs[i] + ys[i]
						}
					}
					x.chargeBlock(c, br*b, bc*b, false)
					y.chargeBlock(c, br*b, bc*b, false)
					dst.chargeBlock(c, br*b, bc*b, true)
				}
			}
			c.Compute(int64(hi-lo) * int64(dst.n) * int64(b))
		})
		return
	}
	grain := 4096 / dst.n
	if grain < 1 {
		grain = 1
	}
	core.SpawnRange(ctx, 0, dst.n, grain, func(c core.Context, lo, hi int) {
		for r := lo; r < hi; r++ {
			for j := 0; j < dst.n; j++ {
				apply(r, j)
			}
			x.chargeRow(c, r, false)
			y.chargeRow(c, r, false)
			dst.chargeRow(c, r, true)
		}
		c.Compute(int64(hi-lo) * int64(dst.n))
	})
}

// combine accumulates weighted products into a C quadrant, parallel over
// row bands (or block rows for blocked layouts).
func (s *Strassen) combine(ctx core.Context, dst view, ms []view, w []float64) {
	apply := func(r, j int) {
		v := 0.0
		for k := range ms {
			v += w[k] * ms[k].at(r, j)
		}
		dst.set(r, j, v)
	}
	all := append([]view{dst}, ms...)
	if b, ok := blockwise(all...); ok {
		nb := dst.n / b
		core.SpawnRange(ctx, 0, nb, 1, func(c core.Context, lo, hi int) {
			for br := lo; br < hi; br++ {
				for bc := 0; bc < nb; bc++ {
					// Each cell sums its weighted products in k order
					// from zero, as apply does.
					d := dst.block(br*b, bc*b, b)
					clear(d)
					for k := range ms {
						wk, mk := w[k], ms[k].block(br*b, bc*b, b)
						for i := range d {
							d[i] += wk * mk[i]
						}
					}
					for k := range ms {
						ms[k].chargeBlock(c, br*b, bc*b, false)
					}
					dst.chargeBlock(c, br*b, bc*b, true)
				}
			}
			c.Compute(int64(hi-lo) * int64(dst.n) * int64(b) * int64(len(ms)))
		})
		return
	}
	grain := 4096 / dst.n
	if grain < 1 {
		grain = 1
	}
	core.SpawnRange(ctx, 0, dst.n, grain, func(c core.Context, lo, hi int) {
		for r := lo; r < hi; r++ {
			for j := 0; j < dst.n; j++ {
				apply(r, j)
			}
			for k := range ms {
				ms[k].chargeRow(c, r, false)
			}
			dst.chargeRow(c, r, true)
		}
		c.Compute(int64(hi-lo) * int64(dst.n) * int64(len(ms)))
	})
}

// baseMul is the sequential tile multiply C = A*B.
func (s *Strassen) baseMul(ctx core.Context, c, a, b view) {
	n := c.n
	chargeTile(ctx, a.m, a.r0, a.c0, n, false)
	chargeTile(ctx, b.m, b.r0, b.c0, n, false)
	co, cs := c.m.Tile(c.r0, c.c0, n)
	for i := 0; i < n; i++ {
		clear(c.m.Data[co+i*cs:][:n])
	}
	tileMul(c.m, c.r0, c.c0, a.m, a.r0, a.c0, b.m, b.r0, b.c0, n)
	chargeTile(ctx, c.m, c.r0, c.c0, n, true)
	ctx.Compute(int64(n) * int64(n) * int64(n))
}

// Verify implements Workload: Strassen's result must match the naive
// product within numerical tolerance.
func (s *Strassen) Verify() error {
	v, _ := s.refCache().Do(s.Name()+".ref", func() (any, error) {
		return naiveMul(s.a, s.b), nil
	})
	ref := v.([]float64)
	for r := 0; r < s.n; r++ {
		for c := 0; c < s.n; c++ {
			got := s.c.At(r, c)
			want := ref[r*s.n+c]
			d := got - want
			if d < -1e-4 || d > 1e-4 {
				return fmt.Errorf("%s: C[%d,%d] = %g, want %g", s.Name(), r, c, got, want)
			}
		}
	}
	return nil
}
