package memory

import "testing"

// TestArray pins the one array type over its three element types: the
// region holds n elements of T, Span and Strided convert element ranges
// and strides to bytes at T's size, and Reuse keeps the data and binds a new region when
// the length matches, but builds a new array when it does not.
func TestArray(t *testing.T) {
	cases := []struct {
		name string
		elem int64 // bytes per element
		run  func(t *testing.T, elem int64)
	}{
		{"float64", 8, checkArray[float64]},
		{"int32", 4, checkArray[int32]},
		{"int64", 8, checkArray[int64]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, tc.elem) })
	}
}

func checkArray[T Elem](t *testing.T, elem int64) {
	const n = 1000
	x := NewArray[T](NewAllocator(2), "x", n, Interleave{})
	if len(x.Data) != n || x.R.Name() != "x" || x.R.Size() != n*elem {
		t.Fatalf("NewArray: %d elements, region %q of %d bytes; want %d, \"x\", %d",
			len(x.Data), x.R.Name(), x.R.Size(), n, n*elem)
	}
	if off, size := x.Span(10, 3); off != 10*elem || size != 3*elem {
		t.Errorf("Span(10, 3) = (%d, %d), want (%d, %d)", off, size, 10*elem, 3*elem)
	}
	if off, stride, size := x.Strided(10, 32, 3); off != 10*elem || stride != 32*elem || size != 3*elem {
		t.Errorf("Strided(10, 32, 3) = (%d, %d, %d), want (%d, %d, %d)",
			off, stride, size, 10*elem, 32*elem, 3*elem)
	}

	// Same length: the data carries over under a region of the new
	// allocator, at the base offset a fresh array there would get.
	x.Data[7] = 42
	old := x.R
	a := NewAllocator(2)
	a.Alloc("before", 100, FirstTouch{})
	y := Reuse(x, a, "y", n, FirstTouch{})
	if y != x || y.Data[7] != 42 {
		t.Fatalf("Reuse at the same length did not keep the array and its data")
	}
	if y.R == old || y.R.Name() != "y" || y.R.Size() != n*elem {
		t.Errorf("Reuse bound region %q of %d bytes (new: %v), want a new \"y\" of %d",
			y.R.Name(), y.R.Size(), y.R != old, n*elem)
	}
	fresh := NewAllocator(2)
	fresh.Alloc("before", 100, FirstTouch{})
	if want := NewArray[T](fresh, "y", n, FirstTouch{}).R.Base(); y.R.Base() != want {
		t.Errorf("reused region base %d, want the fresh base %d", y.R.Base(), want)
	}

	// Another length: a new, zeroed array; the old one is left alone.
	z := Reuse(x, a, "z", n+1, FirstTouch{})
	if z == x || len(z.Data) != n+1 || z.Data[7] != 0 || z.R.Size() != (n+1)*elem {
		t.Errorf("Reuse at another length: same array %v, %d elements, Data[7] = %v, %d bytes; want a new %d-element array of %d bytes",
			z == x, len(z.Data), z.Data[7], z.R.Size(), n+1, (n+1)*elem)
	}
	if x.R != y.R || len(x.Data) != n {
		t.Error("Reuse at another length changed the old array")
	}
	if w := Reuse[T](nil, a, "w", 5, FirstTouch{}); len(w.Data) != 5 || w.R.Size() != 5*elem {
		t.Errorf("Reuse(nil): %d elements, %d bytes; want 5, %d", len(w.Data), w.R.Size(), 5*elem)
	}
}
