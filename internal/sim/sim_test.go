package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(30, 1)
	q.Push(10, 2)
	q.Push(20, 3)
	var times []Time
	for q.Len() > 0 {
		at, _ := q.Pop()
		times = append(times, at)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Errorf("pop order %v not sorted", times)
	}
}

func TestQueueTieBreakById(t *testing.T) {
	var q Queue
	q.Push(5, 9)
	q.Push(5, 1)
	q.Push(5, 4)
	want := []int{1, 4, 9}
	for _, w := range want {
		_, id := q.Pop()
		if id != w {
			t.Errorf("pop id = %d, want %d", id, w)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	q.Push(7, 3)
	at, id := q.Peek()
	if at != 7 || id != 3 {
		t.Errorf("Peek() = (%d, %d), want (7, 3)", at, id)
	}
	if q.Len() != 1 {
		t.Errorf("Peek consumed the entry: len = %d", q.Len())
	}
}

func TestQueuePanics(t *testing.T) {
	var q Queue
	for name, f := range map[string]func(){
		"pop empty":              func() { q.Pop() },
		"peek empty":             func() { q.Peek() },
		"negative time":          func() { q.Push(-1, 0) },
		"negative push-pop time": func() { q.PushPop(-1, 0) },
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

// Property: popping always yields non-decreasing times regardless of
// insertion order.
func TestQueueMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var q Queue
		for i, r := range raw {
			q.Push(Time(r), i)
		}
		last := Time(-1)
		for q.Len() > 0 {
			at, _ := q.Pop()
			if at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 20; i++ {
		if a.Intn(1000) != c.Intn(1000) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical 20-draw streams")
	}
}

func TestCoinIsRoughlyFair(t *testing.T) {
	g := NewRNG(7)
	heads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Coin() {
			heads++
		}
	}
	if math.Abs(float64(heads)/n-0.5) > 0.03 {
		t.Errorf("heads fraction = %f, want about 0.5", float64(heads)/n)
	}
}

func TestPickFollowsWeights(t *testing.T) {
	g := NewRNG(11)
	weights := []float64{6, 3, 1} // local socket heavily favored
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.Pick(weights)]++
	}
	total := 10.0
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency = %f, want about %f", i, got, want)
		}
	}
}

func TestPickZeroWeightNeverChosen(t *testing.T) {
	g := NewRNG(13)
	weights := []float64{1, 0, 1}
	for i := 0; i < 5000; i++ {
		if g.Pick(weights) == 1 {
			t.Fatal("picked zero-weight index")
		}
	}
}

func TestPickPanics(t *testing.T) {
	g := NewRNG(1)
	for name, w := range map[string][]float64{
		"negative": {1, -1},
		"all zero": {0, 0},
		"empty":    {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%s) did not panic", name)
				}
			}()
			g.Pick(w)
		}()
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	g := NewRNG(3)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	g.Shuffle(xs)
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i+1 {
			t.Fatalf("shuffle lost elements: %v", xs)
		}
	}
}
