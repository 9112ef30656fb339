package workloads

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memory"
)

// LU is the classic Cilk lu benchmark: blocked in-place LU decomposition
// without pivoting (the input is made diagonally dominant, which keeps the
// factorization stable). Each elimination step k factors the diagonal
// block, then solves the row and column panels in parallel, then applies
// the Schur-complement update to the trailing tiles in parallel — a dag
// that starts wide, narrows every step, and interleaves serial
// bottlenecks (the diagonal factor) with full-width phases. None of the
// other benchmarks has this shrinking-frontier shape.
//
// Placement matters: in the aware configuration the matrix's row bands
// are partitioned over sockets and every panel/tile task is earmarked for
// the place of the block row it writes, so trailing updates chase their
// rows across the elimination; the baseline gets serial-first-touch
// placement.
type LU struct {
	reusable
	cfg  Config
	n    int // matrix dimension, a multiple of base
	base int // tile size

	a      *memory.Array[float64]
	orig   []float64
	places int
}

// NewLU builds an n x n decomposition with base x base tiles (n is
// rounded up to a multiple of base).
func NewLU(n, base int, cfg Config) *LU {
	if base < 4 {
		base = 4
	}
	if n < base {
		n = base
	}
	if rem := n % base; rem != 0 {
		n += base - rem
	}
	return &LU{cfg: cfg, n: n, base: base}
}

// Name implements Workload.
func (l *LU) Name() string { return "lu" }

// nb returns the tile count per dimension.
func (l *LU) nb() int { return l.n / l.base }

// Prepare implements Workload: a random matrix with a dominant diagonal,
// row-banded over sockets in the aware configuration.
func (l *LU) Prepare(rt *core.Runtime) {
	l.places = rt.Places()
	first := l.a == nil
	l.a = memory.Reuse(l.a, rt.Allocator(), "lu.A", l.n*l.n, l.cfg.bandPolicy(l.places))
	if !first {
		// The elimination factors A in place; restore the pristine matrix.
		copy(l.a.Data, l.orig)
		return
	}
	r := newRNG(l.cfg.Seed)
	for i := 0; i < l.n; i++ {
		for j := 0; j < l.n; j++ {
			v := 2*r.float64() - 1
			if i == j {
				v += float64(l.n)
			}
			l.a.Data[i*l.n+j] = v
		}
	}
	l.orig = append([]float64(nil), l.a.Data...)
}

// at/set index the full matrix.
func (l *LU) at(r, c int) float64     { return l.a.Data[r*l.n+c] }
func (l *LU) set(r, c int, v float64) { l.a.Data[r*l.n+c] = v }

// chargeTile charges one access to the base x base tile at block (bi, bj):
// one strided span per tile (rows are n-strided segments).
func (l *LU) chargeTile(ctx core.Context, bi, bj int, write bool) {
	b := l.base
	chargeStrided(ctx, l.a, bi*b*l.n+bj*b, l.n, b, b, write)
}

// hint earmarks a task for the place owning block row bi (aware runs
// only).
func (l *LU) hint(ctx core.Context, bi int, t core.Task) {
	if l.cfg.Aware {
		ctx.SpawnAt(placeOf(bi, l.nb(), l.places), t)
	} else {
		ctx.Spawn(t)
	}
}

// Root implements Workload: right-looking blocked elimination.
func (l *LU) Root() core.Task {
	return func(ctx core.Context) {
		nb := l.nb()
		for k := 0; k < nb; k++ {
			k := k
			ctx.Call(func(c core.Context) { l.factor(c, k) })
			// Row panel (L_kk \ A[k][j]) and column panel (A[i][k] / U_kk)
			// solves are independent of each other.
			for j := k + 1; j < nb; j++ {
				j := j
				l.hint(ctx, k, func(c core.Context) { l.solveRow(c, k, j) })
			}
			for i := k + 1; i < nb; i++ {
				i := i
				l.hint(ctx, i, func(c core.Context) { l.solveCol(c, i, k) })
			}
			ctx.Sync()
			// Trailing Schur update: every (i, j) tile is independent.
			for i := k + 1; i < nb; i++ {
				i := i
				for j := k + 1; j < nb; j++ {
					j := j
					l.hint(ctx, i, func(c core.Context) { l.schur(c, i, j, k) })
				}
			}
			ctx.Sync()
		}
	}
}

// factor computes the unpivoted LU of diagonal block k in place.
func (l *LU) factor(ctx core.Context, k int) {
	b, o := l.base, k*l.base
	for p := 0; p < b; p++ {
		piv := l.at(o+p, o+p)
		for r := p + 1; r < b; r++ {
			m := l.at(o+r, o+p) / piv
			l.set(o+r, o+p, m)
			for c := p + 1; c < b; c++ {
				l.set(o+r, o+c, l.at(o+r, o+c)-m*l.at(o+p, o+c))
			}
		}
	}
	l.chargeTile(ctx, k, k, false)
	l.chargeTile(ctx, k, k, true)
	ctx.Compute(2 * int64(b) * int64(b) * int64(b) / 3)
}

// solveRow replaces tile (k, j) with L_kk^-1 * A[k][j] (unit lower
// forward substitution).
func (l *LU) solveRow(ctx core.Context, k, j int) {
	b, ro, co := l.base, k*l.base, j*l.base
	for p := 0; p < b; p++ {
		for r := p + 1; r < b; r++ {
			m := l.at(ro+r, ro+p) // L factor from the diagonal block
			for c := 0; c < b; c++ {
				l.set(ro+r, co+c, l.at(ro+r, co+c)-m*l.at(ro+p, co+c))
			}
		}
	}
	l.chargeTile(ctx, k, k, false)
	l.chargeTile(ctx, k, j, false)
	l.chargeTile(ctx, k, j, true)
	ctx.Compute(int64(b) * int64(b) * int64(b))
}

// solveCol replaces tile (i, k) with A[i][k] * U_kk^-1 (backward-free
// column scaling against the upper factor).
func (l *LU) solveCol(ctx core.Context, i, k int) {
	b, ro, co := l.base, i*l.base, k*l.base
	for p := 0; p < b; p++ {
		piv := l.at(co+p, co+p)
		for r := 0; r < b; r++ {
			v := l.at(ro+r, co+p) / piv
			l.set(ro+r, co+p, v)
			for c := p + 1; c < b; c++ {
				l.set(ro+r, co+c, l.at(ro+r, co+c)-v*l.at(co+p, co+c))
			}
		}
	}
	l.chargeTile(ctx, k, k, false)
	l.chargeTile(ctx, i, k, false)
	l.chargeTile(ctx, i, k, true)
	ctx.Compute(int64(b) * int64(b) * int64(b))
}

// schur applies A[i][j] -= A[i][k] * A[k][j].
func (l *LU) schur(ctx core.Context, i, j, k int) {
	b := l.base
	io, jo, ko := i*l.base, j*l.base, k*l.base
	for r := 0; r < b; r++ {
		for p := 0; p < b; p++ {
			m := l.at(io+r, ko+p)
			for c := 0; c < b; c++ {
				l.set(io+r, jo+c, l.at(io+r, jo+c)-m*l.at(ko+p, jo+c))
			}
		}
	}
	l.chargeTile(ctx, i, k, false)
	l.chargeTile(ctx, k, j, false)
	l.chargeTile(ctx, i, j, false)
	l.chargeTile(ctx, i, j, true)
	ctx.Compute(2 * int64(b) * int64(b) * int64(b))
}

// Verify implements Workload: multiply the factors back together (L unit
// lower, U upper) and compare against the original matrix.
func (l *LU) Verify() error {
	n := l.n
	tol := 1e-8 * float64(n) * float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lim := i
			if j < lim {
				lim = j
			}
			sum := 0.0
			for k := 0; k <= lim; k++ {
				lv := l.at(i, k)
				if k == i {
					lv = 1 // unit diagonal of L
				}
				sum += lv * l.at(k, j)
			}
			if math.Abs(sum-l.orig[i*n+j]) > tol {
				return fmt.Errorf("lu: (L*U)[%d,%d] = %g, want %g", i, j, sum, l.orig[i*n+j])
			}
		}
	}
	return nil
}
