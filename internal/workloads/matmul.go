package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
)

// Matmul is the paper's matmul benchmark: "an eight-way divide-and-conquer
// matrix multiplication with no temporary matrices". Each level splits C
// into quadrants, computes the four first-half products in parallel, syncs,
// then the four second-half products (no temporaries means the two updates
// to each C quadrant are serialized by the sync).
//
// The Z variant (matmul-z, the paper's data layout transformation) stores
// all three matrices in blocked Z-Morton order with the block equal to the
// base case, so every base-case tile is one contiguous, streamable,
// socket-bindable span.
type Matmul struct {
	reusable
	refShared
	cfg    Config
	n      int
	base   int
	zkind  bool
	a, b   *layout.Matrix
	c      *layout.Matrix
	places int
}

// NewMatmul builds an n x n multiply with the given base-case tile size; z
// selects the blocked Z-Morton layout variant.
func NewMatmul(n, base int, z bool, cfg Config) *Matmul {
	return &Matmul{cfg: cfg, n: n, base: base, zkind: z}
}

// Name implements Workload.
func (m *Matmul) Name() string {
	if m.zkind {
		return "matmul-z"
	}
	return "matmul"
}

// Prepare implements Workload.
func (m *Matmul) Prepare(rt *core.Runtime) {
	m.places = rt.Places()
	alloc := rt.Allocator()
	kind, block := layout.RowMajor, 0
	if m.zkind {
		kind, block = layout.BlockedMorton, m.base
	}
	pol := basePolicy()
	first := m.a == nil
	if first {
		m.a = layout.NewMatrix(alloc, m.Name()+".A", m.n, kind, block, pol)
		m.b = layout.NewMatrix(alloc, m.Name()+".B", m.n, kind, block, pol)
		m.c = layout.NewMatrix(alloc, m.Name()+".C", m.n, kind, block, pol)
	} else {
		m.a.Rebind(alloc, m.Name()+".A", pol)
		m.b.Rebind(alloc, m.Name()+".B", pol)
		m.c.Rebind(alloc, m.Name()+".C", pol)
		// The base case accumulates into C; reuse starts from zero again.
		clear(m.c.Data)
	}
	if m.cfg.Aware && m.zkind {
		// Co-locate quadrants with the places that compute them; only the
		// Z layout makes quadrants page-contiguous.
		sockets := make([]int, 4)
		for i := range sockets {
			sockets[i] = placeOf(i, 4, m.places)
		}
		m.a.BindQuadrantsToSockets(sockets)
		m.b.BindQuadrantsToSockets(sockets)
		m.c.BindQuadrantsToSockets(sockets)
	}
	if first {
		m.a.FillRandom(m.cfg.Seed)
		m.b.FillRandom(m.cfg.Seed + 1)
	}
}

// Root implements Workload.
func (m *Matmul) Root() core.Task {
	return func(ctx core.Context) {
		m.rec(ctx, 0, 0, 0, 0, 0, 0, m.n, true)
	}
}

// rec computes C[cr:cr+n, cc:cc+n] += A[ar..,ac..] * B[br..,bc..]. top marks
// the root level, where the aware configuration earmarks each C quadrant's
// tasks for a place.
func (m *Matmul) rec(ctx core.Context, cr, cc, ar, ac, br, bc, n int, top bool) {
	if n <= m.base {
		m.baseMul(ctx, cr, cc, ar, ac, br, bc, n)
		return
	}
	h := n / 2
	spawn := func(c core.Context, quad int, f core.Task) {
		if top && m.cfg.Aware {
			c.SpawnAt(placeOf(quad, 4, m.places), f)
		} else {
			c.Spawn(f)
		}
	}
	// First half: Cij += Ai1 * B1j. The fourth quadrant is a plain call
	// (own sync scope), as in the Cilk original.
	spawn(ctx, 0, func(c core.Context) { m.rec(c, cr, cc, ar, ac, br, bc, h, false) })
	spawn(ctx, 1, func(c core.Context) { m.rec(c, cr, cc+h, ar, ac, br, bc+h, h, false) })
	spawn(ctx, 2, func(c core.Context) { m.rec(c, cr+h, cc, ar+h, ac, br, bc, h, false) })
	ctx.Call(func(c core.Context) { m.rec(c, cr+h, cc+h, ar+h, ac, br, bc+h, h, false) })
	ctx.Sync()
	// Second half: Cij += Ai2 * B2j.
	spawn(ctx, 0, func(c core.Context) { m.rec(c, cr, cc, ar, ac+h, br+h, bc, h, false) })
	spawn(ctx, 1, func(c core.Context) { m.rec(c, cr, cc+h, ar, ac+h, br+h, bc+h, h, false) })
	spawn(ctx, 2, func(c core.Context) { m.rec(c, cr+h, cc, ar+h, ac+h, br+h, bc, h, false) })
	ctx.Call(func(c core.Context) { m.rec(c, cr+h, cc+h, ar+h, ac+h, br+h, bc+h, h, false) })
	ctx.Sync()
}

// baseMul is the sequential tile multiply: real arithmetic plus tile-shaped
// access charges (contiguous block reads under the Z layout, strided row
// walks under row-major).
func (m *Matmul) baseMul(ctx core.Context, cr, cc, ar, ac, br, bc, n int) {
	chargeTile(ctx, m.a, ar, ac, n, false)
	chargeTile(ctx, m.b, br, bc, n, false)
	chargeTile(ctx, m.c, cr, cc, n, false)
	tileMul(m.c, cr, cc, m.a, ar, ac, m.b, br, bc, n)
	chargeTile(ctx, m.c, cr, cc, n, true)
	ctx.Compute(int64(n) * int64(n) * int64(n))
}

// tileMul accumulates the n x n tile product C[cr.., cc..] += A[ar.., ac..]
// * B[br.., bc..] over row slices resolved once per tile. Each cell still
// sums its products in ascending k onto its previous value, so the result is
// bit-identical to the textbook triple loop.
func tileMul(c *layout.Matrix, cr, cc int, a *layout.Matrix, ar, ac int, b *layout.Matrix, br, bc, n int) {
	co, cs := c.Tile(cr, cc, n)
	ao, as := a.Tile(ar, ac, n)
	bo, bs := b.Tile(br, bc, n)
	for i := 0; i < n; i++ {
		crow := c.Data[co+i*cs : co+i*cs+n]
		arow := a.Data[ao+i*as : ao+i*as+n]
		for k, aik := range arow {
			brow := b.Data[bo+k*bs : bo+k*bs+n]
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	}
}

// chargeTile charges one access to the n x n tile at (r, c): a single
// streaming span when the tile is a contiguous Z block, otherwise n strided
// row segments.
func chargeTile(ctx core.Context, mat *layout.Matrix, r, c, n int, write bool) {
	if mat.Kind == layout.BlockedMorton && n == mat.Block {
		first, size := mat.BlockSpan(r, c)
		charge(ctx, &mat.Array, first, size, write)
		return
	}
	if mat.Kind == layout.BlockedMorton {
		// Tile smaller than the layout block: rows are contiguous within
		// the block.
		for i := 0; i < n; i++ {
			first, size := mat.RowSpan(r+i, c, n)
			charge(ctx, &mat.Array, first, size, write)
		}
		return
	}
	first, size := mat.RowSpan(r, c, n)
	chargeStrided(ctx, &mat.Array, first, mat.N, size, n, write)
}

// Verify implements Workload: compare against a straightforward triple-loop
// product in a row-major reference matrix.
func (m *Matmul) Verify() error {
	v, _ := m.refCache().Do(m.Name()+".ref", func() (any, error) {
		return naiveMul(m.a, m.b), nil
	})
	ref := v.([]float64)
	for r := 0; r < m.n; r++ {
		for c := 0; c < m.n; c++ {
			got := m.c.At(r, c)
			want := ref[r*m.n+c]
			d := got - want
			if d < -1e-6 || d > 1e-6 {
				return fmt.Errorf("%s: C[%d,%d] = %g, want %g", m.Name(), r, c, got, want)
			}
		}
	}
	return nil
}

// naiveMul computes A*B into a plain row-major slice, blocked over k for
// speed (results are identical to the textbook loop since float addition
// order per cell is preserved: k ascending).
func naiveMul(a, b *layout.Matrix) []float64 {
	n := a.N
	out := make([]float64, n*n)
	// Copy into flat row-major scratch to avoid layout Index costs in the
	// O(n^3) loop.
	af := make([]float64, n*n)
	bf := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			af[r*n+c] = a.At(r, c)
			bf[r*n+c] = b.At(r, c)
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := af[i*n+k]
			row := bf[k*n:]
			outRow := out[i*n:]
			for j := 0; j < n; j++ {
				outRow[j] += aik * row[j]
			}
		}
	}
	return out
}
