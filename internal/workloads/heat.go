package workloads

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memory"
)

// Heat is the paper's heat benchmark: Jacobi-style heat diffusion on a 2D
// plane over a series of time steps. Each step computes a new grid from the
// old one; rows are processed in parallel bands. In the aware configuration
// the row bands of both grids are bound to sockets and the band tasks are
// earmarked for the matching places, co-locating each band's computation
// with its rows across all time steps.
type Heat struct {
	reusable
	refShared
	cfg    Config
	ny, nx int
	steps  int
	bands  int

	grid   [2]*memory.Array[float64]
	places int
	cur    int // which grid holds the latest values after the run
}

// NewHeat builds an ny x nx Jacobi diffusion over the given number of time
// steps, parallelized over `bands` row bands.
func NewHeat(ny, nx, steps, bands int, cfg Config) *Heat {
	if bands < 1 {
		bands = 1
	}
	return &Heat{cfg: cfg, ny: ny, nx: nx, steps: steps, bands: bands}
}

// Name implements Workload.
func (h *Heat) Name() string { return "heat" }

// Prepare implements Workload.
func (h *Heat) Prepare(rt *core.Runtime) {
	h.places = rt.Places()
	pol := h.cfg.bandPolicy(h.places)
	h.grid[0] = memory.Reuse(h.grid[0], rt.Allocator(), "heat.u0", h.ny*h.nx, pol)
	h.grid[1] = memory.Reuse(h.grid[1], rt.Allocator(), "heat.u1", h.ny*h.nx, pol)
	// The sweeps overwrite both grids; re-seeding restores the initial
	// condition whether this is a first or a reused preparation.
	h.initGrid(h.grid[0].Data)
	copy(h.grid[1].Data, h.grid[0].Data)
}

// initGrid sets a hot boundary and a cold interior, a standard Jacobi
// setup with a verifiable steady drift.
func (h *Heat) initGrid(u []float64) {
	for y := 0; y < h.ny; y++ {
		for x := 0; x < h.nx; x++ {
			v := 0.0
			if y == 0 || y == h.ny-1 || x == 0 || x == h.nx-1 {
				v = 100
			} else if (x+y)%17 == 0 {
				v = 40
			}
			u[y*h.nx+x] = v
		}
	}
}

// Root implements Workload: `steps` Jacobi sweeps with a barrier between
// steps, each sweep parallel over row bands.
func (h *Heat) Root() core.Task {
	return func(ctx core.Context) {
		src, dst := 0, 1
		for s := 0; s < h.steps; s++ {
			from, to := src, dst
			spawnBands(ctx, h.bands, h.places, h.cfg.Aware, func(c core.Context, band int) {
				h.sweepBand(c, band, h.grid[from], h.grid[to])
			})
			src, dst = dst, src
		}
		h.cur = src
	}
}

// sweepBand applies the 5-point stencil to the band's interior rows.
func (h *Heat) sweepBand(ctx core.Context, band int, from, to *memory.Array[float64]) {
	lo := 1 + band*(h.ny-2)/h.bands
	hi := 1 + (band+1)*(h.ny-2)/h.bands
	u, v := from.Data, to.Data
	nx := h.nx
	for y := lo; y < hi; y++ {
		for x := 1; x < nx-1; x++ {
			i := y*nx + x
			v[i] = u[i] + 0.2*(u[i-nx]+u[i+nx]+u[i-1]+u[i+1]-4*u[i])
		}
	}
	rows := hi - lo
	if rows <= 0 {
		return
	}
	// The stencil reads rows lo-1 .. hi and writes rows lo .. hi-1.
	charge(ctx, from, (lo-1)*nx, (rows+2)*nx, false)
	charge(ctx, to, lo*nx, rows*nx, true)
	ctx.Compute(int64(rows) * int64(nx) * 6)
}

// Verify implements Workload: compare against a plain serial reference
// computed from the same initial grid (computed once per input, shared by
// pooled instances).
func (h *Heat) Verify() error {
	v, _ := h.refCache().Do("heat.ref", func() (any, error) {
		a := make([]float64, h.ny*h.nx)
		b := make([]float64, h.ny*h.nx)
		h.initGrid(a)
		copy(b, a)
		for s := 0; s < h.steps; s++ {
			for y := 1; y < h.ny-1; y++ {
				for x := 1; x < h.nx-1; x++ {
					i := y*h.nx + x
					b[i] = a[i] + 0.2*(a[i-h.nx]+a[i+h.nx]+a[i-1]+a[i+1]-4*a[i])
				}
			}
			a, b = b, a
		}
		return a, nil
	})
	ref := v.([]float64)
	got := h.grid[h.cur].Data
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-9 {
			return fmt.Errorf("heat: cell %d is %g, want %g", i, got[i], ref[i])
		}
	}
	return nil
}
