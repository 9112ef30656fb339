package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pickBoth drives a linear Pick and a Picker from identically seeded RNGs
// and reports the first draw index where they disagree (-1 if none).
func pickBoth(t *testing.T, weights []float64, seed int64, draws int) int {
	t.Helper()
	a, b := NewRNG(seed), NewRNG(seed)
	p := NewPicker(weights)
	if p.Len() != len(weights) {
		t.Fatalf("Picker.Len() = %d, want %d", p.Len(), len(weights))
	}
	for i := 0; i < draws; i++ {
		if got, want := p.Pick(b), a.Pick(weights); got != want {
			t.Errorf("weights %v seed %d draw %d: Picker = %d, linear Pick = %d",
				weights, seed, i, got, want)
			return i
		}
	}
	return -1
}

// TestPickerMatchesLinearPick is the cross-check the engine's byte-identical
// contract rests on: a Picker consumes the RNG exactly like the linear Pick
// and returns the same index, draw for draw, for the weight families the
// schedulers actually build.
func TestPickerMatchesLinearPick(t *testing.T) {
	families := map[string][]float64{
		// The paper machine's per-victim vectors: hop-class weights 4/2/1
		// with a zero at the thief's own slot.
		"paper-4x8 thief": {0, 4, 4, 2, 2, 1, 1, 2, 4, 2, 1, 4, 1, 2, 4, 1},
		"uniform":         {1, 1, 1, 1, 1, 1, 1},
		"uniform w/ self": {1, 1, 1, 0, 1, 1, 1, 1},
		"single":          {3},
		"zero head":       {0, 0, 5, 1},
		"zero tail":       {5, 1, 0, 0},
		"fractional":      {0.25, 0.5, 0.125, 1.75, 0.0625},
	}
	// The deep-ring capped-exponent weights from the topology sweep: a
	// 1200-socket ring's hop classes degrade to equal 2^512 weights near
	// the thief instead of overflowing (sched.DefaultBiasWeights).
	deep := make([]float64, 600)
	for h := range deep {
		exp := len(deep) - 1 - h
		if exp > 512 {
			exp = 512
		}
		deep[h] = math.Ldexp(1, exp)
	}
	families["deep-ring capped"] = deep

	for name, w := range families {
		for seed := int64(1); seed <= 5; seed++ {
			if i := pickBoth(t, w, seed, 4000); i >= 0 {
				t.Fatalf("%s: first divergence at draw %d", name, i)
			}
		}
	}
}

// TestPickerMatchesLinearPickRandomWeights extends the cross-check to
// randomly generated weight vectors: integer-valued (where floating-point
// subtraction and prefix summation are both exact) and arbitrary floats.
func TestPickerMatchesLinearPickRandomWeights(t *testing.T) {
	gen := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + gen.Intn(64)
		w := make([]float64, n)
		sum := 0.0
		for i := range w {
			if trial%2 == 0 {
				w[i] = float64(gen.Intn(16)) // integers, sometimes zero
			} else {
				w[i] = gen.Float64() * math.Ldexp(1, gen.Intn(20)-10)
			}
			sum += w[i]
		}
		if sum == 0 {
			w[gen.Intn(n)] = 1
		}
		if i := pickBoth(t, w, int64(trial+1), 500); i >= 0 {
			t.Fatalf("trial %d: first divergence at draw %d", trial, i)
		}
	}
}

func TestPickerFollowsWeights(t *testing.T) {
	g := NewRNG(11)
	p := NewPicker([]float64{6, 3, 1})
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[p.Pick(g)]++
	}
	for i, w := range []float64{6, 3, 1} {
		got := float64(counts[i]) / n
		want := w / 10.0
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency = %f, want about %f", i, got, want)
		}
	}
}

// TestNewPickerPanics pins the satellite contract: the validation panics the
// linear Pick raises per call are raised by NewPicker once, at construction.
func TestNewPickerPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"negative": {1, -1},
		"all zero": {0, 0},
		"empty":    {},
		"NaN":      {1, math.NaN()},
		"+Inf":     {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPicker(%s) did not panic", name)
				}
			}()
			NewPicker(w)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%s) did not panic", name)
				}
			}()
			NewRNG(1).Pick(w)
		}()
	}
}

// TestPickUniformExceptMatchesLinearPick checks the O(1) uniform draw
// against the linear Pick over the ones-with-a-zero-at-self vector it
// replaces, draw for draw.
func TestPickUniformExceptMatchesLinearPick(t *testing.T) {
	for _, n := range []int{2, 3, 8, 32, 33} {
		for self := 0; self < n; self += 1 + n/5 {
			w := make([]float64, n)
			for i := range w {
				if i != self {
					w[i] = 1
				}
			}
			a, b := NewRNG(int64(7*n+self)), NewRNG(int64(7*n+self))
			for i := 0; i < 2000; i++ {
				got, want := b.PickUniformExcept(n, self), a.Pick(w)
				if got != want {
					t.Fatalf("n=%d self=%d draw %d: PickUniformExcept = %d, Pick = %d",
						n, self, i, got, want)
				}
				if got == self {
					t.Fatalf("n=%d self=%d draw %d: picked self", n, self, i)
				}
			}
		}
	}
}

func TestPickUniformExceptPanics(t *testing.T) {
	g := NewRNG(1)
	for name, f := range map[string]func(){
		"n too small": func() { g.PickUniformExcept(1, 0) },
		"self low":    func() { g.PickUniformExcept(4, -1) },
		"self high":   func() { g.PickUniformExcept(4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPickerQuickProperty drives random dyadic weights through quick.Check:
// dyadic rationals with a bounded exponent range keep every prefix sum and
// every subtraction exact, so the linear scan and the binary search must
// agree index-for-index, not just almost always.
func TestPickerQuickProperty(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			w[i] = float64(r) / 4.0
			sum += w[i]
		}
		if sum == 0 {
			w[0] = 1
		}
		return pickBoth(t, w, seed, 100) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
