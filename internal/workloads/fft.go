package workloads

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memory"
)

// FFT is the classic Cilk fft benchmark, here as a banded iterative
// Cooley-Tukey transform: a bit-reversal permutation pass followed by
// log2(n) butterfly passes with a barrier between passes, each pass
// parallel over contiguous index bands. The dag alternates full-width
// data-parallel phases whose communication pattern changes every pass —
// early passes stay band-local, the last log2(bands) passes pair each
// band with a partner half the transform away — which makes it the
// suite's stress test for phase-changing traffic.
//
// Placement matters: in the aware configuration the bands of all four
// arrays are partitioned over sockets and each band task is earmarked for
// its band's place (the early, band-local passes then run entirely on
// local memory); the baseline gets the serial-first-touch placement like
// every other benchmark.
type FFT struct {
	reusable
	refShared
	cfg   Config
	n     int // transform size, a power of two
	bands int // parallel bands per pass, a power of two <= n

	d, w     [2]*memory.Array[float64] // input (re, im) and work (re, im) arrays
	wre, wim []float64                 // twiddle table, w^j for j < n/2 (host-side constants)
	orig     [2][]float64
	places   int
}

// NewFFT builds an n-point complex transform (n rounded up to a power of
// two) parallelized over `bands` index bands per pass.
func NewFFT(n, bands int, cfg Config) *FFT {
	if n < 4 {
		n = 4
	}
	n = ceilPow2(n)
	if bands < 1 {
		bands = 1
	}
	bands = ceilPow2(bands)
	if bands > n/2 {
		bands = n / 2
	}
	return &FFT{cfg: cfg, n: n, bands: bands}
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Name implements Workload.
func (f *FFT) Name() string { return "fft" }

// Prepare implements Workload.
func (f *FFT) Prepare(rt *core.Runtime) {
	f.places = rt.Places()
	pol := f.cfg.bandPolicy(f.places)
	first := f.d[0] == nil
	f.d[0] = memory.Reuse(f.d[0], rt.Allocator(), "fft.re", f.n, pol)
	f.d[1] = memory.Reuse(f.d[1], rt.Allocator(), "fft.im", f.n, pol)
	// The work arrays are never touched before the timed region: genuine
	// first-touch under the baseline, banded under the aware configuration.
	spol := f.cfg.scratchPolicy(f.places)
	f.w[0] = memory.Reuse(f.w[0], rt.Allocator(), "fft.wre", f.n, spol)
	f.w[1] = memory.Reuse(f.w[1], rt.Allocator(), "fft.wim", f.n, spol)
	if !first {
		// The input arrays are read-only during the run and the work arrays
		// are fully rewritten by the permutation pass before any butterfly
		// reads them, so reuse needs no data reset.
		return
	}
	r := newRNG(f.cfg.Seed)
	for i := 0; i < f.n; i++ {
		f.d[0].Data[i] = 2*r.float64() - 1
		f.d[1].Data[i] = 2*r.float64() - 1
	}
	f.orig[0] = append([]float64(nil), f.d[0].Data...)
	f.orig[1] = append([]float64(nil), f.d[1].Data...)
	// Twiddle factors w_n^j = exp(-2*pi*i*j/n). The table is a computed
	// constant shared read-only by every pass; it is not a simulated
	// region (a real kernel folds it into registers or recomputes it), so
	// passes charge only their array traffic.
	f.wre = make([]float64, f.n/2)
	f.wim = make([]float64, f.n/2)
	for j := 0; j < f.n/2; j++ {
		ang := -2 * math.Pi * float64(j) / float64(f.n)
		f.wre[j] = math.Cos(ang)
		f.wim[j] = math.Sin(ang)
	}
}

// Root implements Workload: the permutation pass, then log2(n) butterfly
// passes, each parallel over bands with a barrier between passes.
func (f *FFT) Root() core.Task {
	return func(ctx core.Context) {
		spawnBands(ctx, f.bands, f.places, f.cfg.Aware, func(c core.Context, band int) {
			f.permuteBand(c, band)
		})
		for m := 2; m <= f.n; m <<= 1 {
			m := m
			spawnBands(ctx, f.bands, f.places, f.cfg.Aware, func(c core.Context, band int) {
				f.butterflyBand(c, band, m)
			})
		}
	}
}

// logn returns log2(f.n).
func (f *FFT) logn() uint {
	l := uint(0)
	for v := f.n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// revBits reverses the low `width` bits of v.
func revBits(v int, width uint) int {
	out := 0
	for i := uint(0); i < width; i++ {
		out = out<<1 | v&1
		v >>= 1
	}
	return out
}

// permuteBand writes w[i] = d[rev(i)] for the band's index range. The
// writes stream the band; the reads are a perfect stride-n/bandSize
// gather (reversing the low bits of a contiguous range walks the array in
// steps of n/bandSize), charged as such.
func (f *FFT) permuteBand(ctx core.Context, band int) {
	size := f.n / f.bands
	lo := band * size
	width := f.logn()
	for i := lo; i < lo+size; i++ {
		j := revBits(i, width)
		f.w[0].Data[i] = f.d[0].Data[j]
		f.w[1].Data[i] = f.d[1].Data[j]
	}
	base, stride := revBits(lo, width), f.n/size
	for k := 0; k < 2; k++ {
		chargeStrided(ctx, f.d[k], base, stride, 1, size, false)
		charge(ctx, f.w[k], lo, size, true)
	}
	ctx.Compute(int64(size) * 4)
}

// butterflyBand applies the size-m butterfly stage to the band's range.
// A pair couples i with i+m/2; the task owning the first-half index
// computes and writes both sides, so bands never write the same element
// (race-free under real parallelism). While m is at most the band size
// every pair stays band-local; in the last log2(bands) stages a first-half
// band updates its partner band's range half the block away and
// second-half bands have no work.
func (f *FFT) butterflyBand(ctx core.Context, band, m int) {
	size := f.n / f.bands
	lo, hi := band*size, (band+1)*size
	h := m / 2
	tw := f.n / m // twiddle table stride for this stage
	pairs := 0
	for i := lo; i < hi; i++ {
		j := i & (m - 1)
		if j >= h {
			continue
		}
		p := i + h
		wr, wi := f.wre[j*tw], f.wim[j*tw]
		ar, ai := f.w[0].Data[i], f.w[1].Data[i]
		br, bi := f.w[0].Data[p], f.w[1].Data[p]
		tr := wr*br - wi*bi
		ti := wr*bi + wi*br
		f.w[0].Data[i], f.w[1].Data[i] = ar+tr, ai+ti
		f.w[0].Data[p], f.w[1].Data[p] = ar-tr, ai-ti
		pairs++
	}
	if pairs == 0 {
		return // a second-half band of a late stage: its partner updates it
	}
	for k := 0; k < 2; k++ {
		charge(ctx, f.w[k], lo, hi-lo, false)
		charge(ctx, f.w[k], lo, hi-lo, true)
		if h >= size {
			// Partners live in the band half a block away.
			charge(ctx, f.w[k], lo+h, hi-lo, false)
			charge(ctx, f.w[k], lo+h, hi-lo, true)
		}
	}
	ctx.Compute(int64(pairs) * 10)
}

// Verify implements Workload: compare against an independent serial
// recursive Cooley-Tukey transform of the original input.
func (f *FFT) Verify() error {
	v, _ := f.refCache().Do("fft.ref", func() (any, error) {
		ref := make([]complex128, f.n)
		for i := range ref {
			ref[i] = complex(f.orig[0][i], f.orig[1][i])
		}
		serialFFT(ref, make([]complex128, f.n))
		return ref, nil
	})
	ref := v.([]complex128)
	tol := 1e-9 * float64(f.n)
	for i := 0; i < f.n; i++ {
		dr := f.w[0].Data[i] - real(ref[i])
		di := f.w[1].Data[i] - imag(ref[i])
		if math.Abs(dr) > tol || math.Abs(di) > tol {
			return fmt.Errorf("fft: bin %d = (%g, %g), want (%g, %g)",
				i, f.w[0].Data[i], f.w[1].Data[i], real(ref[i]), imag(ref[i]))
		}
	}
	return nil
}

// serialFFT is the reference: recursive decimation-in-time on complex128,
// structurally unrelated to the banded iterative kernel it checks.
func serialFFT(a, scratch []complex128) {
	n := len(a)
	if n == 1 {
		return
	}
	h := n / 2
	even, odd := scratch[:h], scratch[h:]
	for i := 0; i < h; i++ {
		even[i] = a[2*i]
		odd[i] = a[2*i+1]
	}
	copy(a[:h], even)
	copy(a[h:], odd)
	serialFFT(a[:h], scratch[:h])
	serialFFT(a[h:], scratch[h:])
	for k := 0; k < h; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		w := complex(math.Cos(ang), math.Sin(ang))
		t := w * a[h+k]
		scratch[k], scratch[h+k] = a[k]+t, a[k]-t
	}
	copy(a, scratch)
}
