package layout

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// fig6a is the exact 8x8 cell Z-Morton grid from the paper's Fig. 6(a).
const fig6a = ` 0  1  4  5 16 17 20 21
 2  3  6  7 18 19 22 23
 8  9 12 13 24 25 28 29
10 11 14 15 26 27 30 31
32 33 36 37 48 49 52 53
34 35 38 39 50 51 54 55
40 41 44 45 56 57 60 61
42 43 46 47 58 59 62 63
`

// fig6b is the exact 8x8 blocked Z-Morton grid (block 4) from Fig. 6(b).
const fig6b = ` 0  1  2  3 16 17 18 19
 4  5  6  7 20 21 22 23
 8  9 10 11 24 25 26 27
12 13 14 15 28 29 30 31
32 33 34 35 48 49 50 51
36 37 38 39 52 53 54 55
40 41 42 43 56 57 58 59
44 45 46 47 60 61 62 63
`

func TestFig6aGolden(t *testing.T) {
	if got := Grid(8, Morton, 0); got != fig6a {
		t.Errorf("Fig. 6(a) mismatch:\ngot:\n%s\nwant:\n%s", got, fig6a)
	}
}

func TestFig6bGolden(t *testing.T) {
	if got := Grid(8, BlockedMorton, 4); got != fig6b {
		t.Errorf("Fig. 6(b) mismatch:\ngot:\n%s\nwant:\n%s", got, fig6b)
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(r16, c16 uint16) bool {
		r, c := int(r16), int(c16)
		rr, cc := MortonDecode(MortonIndex(r, c))
		return rr == r && cc == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonIsBijectionOnGrid(t *testing.T) {
	const n = 64
	seen := make([]bool, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := MortonIndex(r, c)
			if i < 0 || i >= n*n {
				t.Fatalf("MortonIndex(%d,%d) = %d out of range", r, c, i)
			}
			if seen[i] {
				t.Fatalf("MortonIndex(%d,%d) = %d collides", r, c, i)
			}
			seen[i] = true
		}
	}
}

// Property: all three layouts are bijections over the grid.
func TestLayoutBijectionProperty(t *testing.T) {
	a := memory.NewAllocator(4)
	for _, tc := range []struct {
		kind  Kind
		block int
	}{{RowMajor, 0}, {Morton, 0}, {BlockedMorton, 4}} {
		m := NewMatrix(a, tc.kind.String(), 16, tc.kind, tc.block, memory.Interleave{})
		seen := make([]bool, 16*16)
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				i := m.Index(r, c)
				if i < 0 || i >= len(seen) || seen[i] {
					t.Fatalf("%v: Index(%d,%d) = %d invalid or duplicate", tc.kind, r, c, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestBlockedMortonBlockContiguity(t *testing.T) {
	a := memory.NewAllocator(4)
	m := NewMatrix(a, "m", 32, BlockedMorton, 8, memory.Interleave{})
	// Every cell of a block must fall inside the block's element range,
	// which holds exactly the block's 64 cells.
	for br := 0; br < 4; br++ {
		for bc := 0; bc < 4; bc++ {
			first, n := m.BlockSpan(br*8, bc*8)
			if n != 64 {
				t.Fatalf("block (%d,%d) spans %d elements, want 64", br, bc, n)
			}
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					idx := m.Index(br*8+r, bc*8+c)
					if idx < first || idx >= first+n {
						t.Fatalf("cell (%d,%d) of block (%d,%d) at element %d outside span [%d,%d)",
							r, c, br, bc, idx, first, first+n)
					}
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BlockSpan on a row-major matrix did not panic")
			}
		}()
		NewMatrix(a, "rm", 32, RowMajor, 0, memory.Interleave{}).BlockSpan(0, 0)
	}()
}

func TestQuadrantsAreContiguousQuarters(t *testing.T) {
	// In Z order the four quadrants occupy the four contiguous quarters of
	// the array — the property that page binding relies on.
	a := memory.NewAllocator(4)
	n, b := 64, 8
	m := NewMatrix(a, "m", n, BlockedMorton, b, memory.FirstTouch{})
	half := n / 2
	quarterCells := n * n / 4
	quadOf := func(r, c int) int {
		q := 0
		if c >= half {
			q |= 1
		}
		if r >= half {
			q |= 2
		}
		return q
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := m.Index(r, c)
			if got, want := i/quarterCells, quadOf(r, c); got != want {
				t.Fatalf("cell (%d,%d) index %d in quarter %d, want quadrant %d", r, c, i, got, want)
			}
		}
	}
}

func TestBindQuadrantsToSockets(t *testing.T) {
	a := memory.NewAllocator(4)
	// 64x64 floats = 32 KiB = 8 pages; each quadrant = 2 pages.
	m := NewMatrix(a, "m", 64, BlockedMorton, 8, memory.FirstTouch{})
	m.BindQuadrantsToSockets([]int{0, 1, 2, 3})
	dist := m.R.Distribution(4)
	for s := 0; s < 4; s++ {
		if dist[s] != 2 {
			t.Errorf("socket %d owns %d pages, want 2; dist=%v", s, dist[s], dist)
		}
	}
}

func TestRowSpan(t *testing.T) {
	a := memory.NewAllocator(4)
	rm := NewMatrix(a, "rm", 16, RowMajor, 0, memory.Interleave{})
	if first, n := rm.RowSpan(3, 4, 8); first != 3*16+4 || n != 8 {
		t.Errorf("row-major RowSpan = (%d,%d), want (%d,8)", first, n, 3*16+4)
	}
	bm := NewMatrix(a, "bm", 16, BlockedMorton, 4, memory.Interleave{})
	if first, n := bm.RowSpan(5, 4, 4); first != bm.Index(5, 4) || n != 4 { // row 1 of block (1,1)
		t.Errorf("blocked RowSpan = (%d,%d), want (%d,4)", first, n, bm.Index(5, 4))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RowSpan crossing block boundary did not panic")
			}
		}()
		bm.RowSpan(0, 2, 4)
	}()
}

// TestTileAgreesWithIndex pins Tile's contract: on every aligned tile of a
// row-major matrix and of blocked Z-Morton matrices (tiles up to the block
// side), element (row+i, col+j) sits at off+i*stride+j, exactly where
// Index puts it. Tiles crossing a block, and cell Z-Morton, panic.
func TestTileAgreesWithIndex(t *testing.T) {
	const n = 16
	a := memory.NewAllocator(4)
	for _, m := range []*Matrix{
		NewMatrix(a, "rm", n, RowMajor, 0, memory.Interleave{}),
		NewMatrix(a, "bm4", n, BlockedMorton, 4, memory.Interleave{}),
		NewMatrix(a, "bm8", n, BlockedMorton, 8, memory.Interleave{}),
	} {
		maxTile := n
		if m.Kind == BlockedMorton {
			maxTile = m.Block
		}
		for side := 1; side <= maxTile; side *= 2 {
			for r := 0; r < n; r += side {
				for c := 0; c < n; c += side {
					off, stride := m.Tile(r, c, side)
					for i := 0; i < side; i++ {
						for j := 0; j < side; j++ {
							if got, want := off+i*stride+j, m.Index(r+i, c+j); got != want {
								t.Fatalf("%s: %dx%d tile at (%d,%d): element (%d,%d) at %d, Index says %d",
									m.Kind, side, side, r, c, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
	bm := NewMatrix(a, "bm", n, BlockedMorton, 4, memory.Interleave{})
	mo := NewMatrix(a, "mo", n, Morton, 0, memory.Interleave{})
	for name, tile := range map[string]func(){
		"block-crossing column": func() { bm.Tile(0, 2, 4) },
		"block-crossing row":    func() { bm.Tile(6, 0, 4) },
		"oversized":             func() { bm.Tile(0, 0, 8) },
		"cell Z-Morton":         func() { mo.Tile(0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tile (%s) did not panic", name)
				}
			}()
			tile()
		}()
	}
}

func TestAtSetAddAcrossLayouts(t *testing.T) {
	a := memory.NewAllocator(2)
	for _, tc := range []struct {
		kind  Kind
		block int
	}{{RowMajor, 0}, {Morton, 0}, {BlockedMorton, 4}} {
		m := NewMatrix(a, tc.kind.String(), 8, tc.kind, tc.block, memory.Interleave{})
		m.Set(3, 5, 7.5)
		m.Add(3, 5, 0.5)
		if got := m.At(3, 5); got != 8 {
			t.Errorf("%v: At(3,5) = %f, want 8", tc.kind, got)
		}
		if got := m.At(5, 3); got != 0 {
			t.Errorf("%v: At(5,3) = %f, want 0", tc.kind, got)
		}
	}
}

func TestFillRandomLayoutIndependent(t *testing.T) {
	a := memory.NewAllocator(2)
	rm := NewMatrix(a, "rm", 16, RowMajor, 0, memory.Interleave{})
	bm := NewMatrix(a, "bm", 16, BlockedMorton, 4, memory.Interleave{})
	rm.FillRandom(42)
	bm.FillRandom(42)
	if !Equal(rm, bm, 0) {
		t.Error("FillRandom produced different logical contents across layouts")
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	a := memory.NewAllocator(2)
	x := NewMatrix(a, "x", 8, RowMajor, 0, memory.Interleave{})
	y := NewMatrix(a, "y", 8, RowMajor, 0, memory.Interleave{})
	if !Equal(x, y, 0) {
		t.Error("zero matrices not equal")
	}
	y.Set(7, 7, 1e-3)
	if Equal(x, y, 1e-6) {
		t.Error("difference not detected")
	}
	if !Equal(x, y, 1e-2) {
		t.Error("difference within eps not tolerated")
	}
	z := NewMatrix(a, "z", 4, RowMajor, 0, memory.Interleave{})
	if Equal(x, z, 1) {
		t.Error("size mismatch not detected")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	a := memory.NewAllocator(2)
	for name, f := range map[string]func(){
		"morton non-pow2":     func() { NewMatrix(a, "m", 12, Morton, 0, memory.Interleave{}) },
		"block non-divisor":   func() { NewMatrix(a, "m", 16, BlockedMorton, 5, memory.Interleave{}) },
		"block grid non-pow2": func() { NewMatrix(a, "m", 24, BlockedMorton, 8, memory.Interleave{}) },
		"zero block":          func() { NewMatrix(a, "m", 16, BlockedMorton, 0, memory.Interleave{}) },
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

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{RowMajor: "row-major", Morton: "z-morton", BlockedMorton: "blocked-z-morton"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include its number")
	}
}
