// Package layout implements the paper's data layout transformation
// (Section III-C, Fig. 6): matrices stored row-major, in cell-by-cell
// Z-Morton order (the cache-oblivious bit-interleaved layout), or in the
// paper's blocked Z-Morton order, where fixed-size blocks are laid out along
// the recursive Z curve and cells within each block are row-major.
//
// Blocked Z-Morton gives divide-and-conquer base cases contiguous memory —
// so a base-case tile is one streaming read, its pages can be bound to one
// socket, and the bit interleaving is computed per block instead of per
// cell ("we save on overhead for index computation").
package layout

import (
	"fmt"
	"strings"

	"repro/internal/memory"
)

// Kind selects a matrix storage order.
type Kind int

// Supported layouts.
const (
	// RowMajor is the conventional C order.
	RowMajor Kind = iota
	// Morton is the cell-by-cell Z-Morton order of Fig. 6a.
	Morton
	// BlockedMorton is Fig. 6b: blocks on the Z curve, cells row-major
	// within each block.
	BlockedMorton
)

// String names the layout kind.
func (k Kind) String() string {
	switch k {
	case RowMajor:
		return "row-major"
	case Morton:
		return "z-morton"
	case BlockedMorton:
		return "blocked-z-morton"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MortonIndex interleaves the bits of (row, col) into the Z-curve index:
// bit i of col lands at position 2i and bit i of row at position 2i+1,
// which reproduces Fig. 6a exactly (index 1 is (0,1); index 2 is (1,0)).
func MortonIndex(row, col int) int64 {
	return int64(spread(uint32(col)) | spread(uint32(row))<<1)
}

// MortonDecode inverts MortonIndex.
func MortonDecode(i int64) (row, col int) {
	return int(compact(uint64(i) >> 1)), int(compact(uint64(i)))
}

// spread inserts a zero bit above every bit of x (16 -> 32 bits).
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact drops every other bit of x, inverting spread.
func compact(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return uint32(v)
}

// Matrix is a dense n x n float64 matrix stored in one of the three layouts,
// backed by a simulated region so accesses can be charged to the cache
// model.
type Matrix struct {
	N     int
	Block int // block side for BlockedMorton; 0 otherwise
	Kind  Kind
	memory.Array[float64]
}

// NewMatrix allocates an n x n matrix with the given layout. For
// BlockedMorton, n must be a multiple of block and n/block a power of two
// (the Z curve needs a power-of-two block grid); for Morton, n must be a
// power of two.
func NewMatrix(a *memory.Allocator, name string, n int, kind Kind, block int, pol memory.Policy) *Matrix {
	switch kind {
	case Morton:
		if n&(n-1) != 0 {
			panic(fmt.Sprintf("layout: Morton matrix side %d is not a power of two", n))
		}
	case BlockedMorton:
		if block <= 0 || n%block != 0 {
			panic(fmt.Sprintf("layout: block %d does not divide side %d", block, n))
		}
		if g := n / block; g&(g-1) != 0 {
			panic(fmt.Sprintf("layout: block grid %d is not a power of two", n/block))
		}
	default:
		block = 0
	}
	return &Matrix{N: n, Block: block, Kind: kind, Array: *memory.NewArray[float64](a, name, n*n, pol)}
}

// Rebind re-registers the matrix's region with a fresh allocator, keeping
// its data and layout. Pooled workloads call it during Prepare to carry a
// constructed matrix into a new run: regions hold run-scoped first-touch
// state, so each run needs its own, but the expensive part — the data and
// its layout — is layout-validated once and reused.
func (m *Matrix) Rebind(a *memory.Allocator, name string, pol memory.Policy) {
	memory.Reuse(&m.Array, a, name, m.N*m.N, pol)
}

// Index maps (row, col) to the linear element index under the matrix's
// layout.
func (m *Matrix) Index(row, col int) int {
	switch m.Kind {
	case Morton:
		return int(MortonIndex(row, col))
	case BlockedMorton:
		b := m.Block
		blockIdx := MortonIndex(row/b, col/b)
		return int(blockIdx)*b*b + (row%b)*b + (col % b)
	default:
		return row*m.N + col
	}
}

// Tile resolves the n x n tile whose top-left corner is (row, col) to a
// base offset and a row stride: element (row+i, col+j) is
// Data[off+i*stride+j]. Base-case kernels resolve a tile once and then walk
// plain row slices instead of paying Index per element. Tiles of RowMajor
// matrices and tiles inside one BlockedMorton block qualify; a tile that
// crosses a block boundary, or any tile of a cell Z-Morton matrix, has no
// single stride, and Tile panics.
func (m *Matrix) Tile(row, col, n int) (off, stride int) {
	switch m.Kind {
	case RowMajor:
		return row*m.N + col, m.N
	case BlockedMorton:
		b := m.Block
		if row/b != (row+n-1)/b || col/b != (col+n-1)/b {
			panic(fmt.Sprintf("layout: %dx%d tile at (%d,%d) crosses a %d-block boundary", n, n, row, col, b))
		}
		return m.Index(row, col), b
	default:
		panic("layout: Tile unsupported for cell Z-Morton")
	}
}

// At reads element (row, col).
func (m *Matrix) At(row, col int) float64 { return m.Data[m.Index(row, col)] }

// Set writes element (row, col).
func (m *Matrix) Set(row, col int, v float64) { m.Data[m.Index(row, col)] = v }

// Add accumulates into element (row, col).
func (m *Matrix) Add(row, col int, v float64) { m.Data[m.Index(row, col)] += v }

// BlockSpan reports the element range (first element, element count) of
// the layout block that holds (row, col): under BlockedMorton a b x b
// block is contiguous, so a whole-block access is one streaming span.
func (m *Matrix) BlockSpan(row, col int) (i, n int) {
	if m.Kind != BlockedMorton {
		panic("layout: BlockSpan requires a BlockedMorton matrix")
	}
	b := m.Block
	return int(MortonIndex(row/b, col/b)) * b * b, b * b
}

// RowSpan reports the element range (first element, element count) of the
// length-w row segment starting at (row, col), valid for RowMajor matrices
// and for within-block rows of BlockedMorton matrices.
func (m *Matrix) RowSpan(row, col, w int) (i, n int) {
	switch m.Kind {
	case RowMajor:
		return row*m.N + col, w
	case BlockedMorton:
		b := m.Block
		if col/b != (col+w-1)/b {
			panic("layout: RowSpan crosses a block boundary")
		}
		return m.Index(row, col), w
	default:
		panic("layout: RowSpan unsupported for cell Z-Morton")
	}
}

// BindQuadrantsToSockets binds the pages of each quadrant of a
// BlockedMorton matrix to a socket: quadrant q (in Z order: TL, TR, BL, BR)
// goes to sockets[q % len(sockets)]. Under the Z curve each quadrant is one
// contiguous quarter of the array, which is what makes this binding
// possible at page granularity — the point of the transformation.
func (m *Matrix) BindQuadrantsToSockets(sockets []int) {
	if m.Kind != BlockedMorton {
		panic("layout: quadrant binding requires BlockedMorton")
	}
	if len(sockets) == 0 {
		return
	}
	quarter := m.R.Size() / 4
	for q := 0; q < 4; q++ {
		m.R.BindRange(int64(q)*quarter, quarter, sockets[q%len(sockets)])
	}
}

// FillRandom initializes the matrix with a cheap deterministic pattern in
// logical (row, col) space, identical across layouts so results are
// comparable.
func (m *Matrix) FillRandom(seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	for r := 0; r < m.N; r++ {
		for c := 0; c < m.N; c++ {
			s = s*6364136223846793005 + 1442695040888963407
			m.Set(r, c, float64(int64(s>>33)%2048-1024)/256.0)
		}
	}
}

// Equal reports whether two matrices hold the same logical values within
// eps, regardless of layout.
func Equal(a, b *Matrix, eps float64) bool {
	if a.N != b.N {
		return false
	}
	for r := 0; r < a.N; r++ {
		for c := 0; c < a.N; c++ {
			d := a.At(r, c) - b.At(r, c)
			if d < -eps || d > eps {
				return false
			}
		}
	}
	return true
}

// Grid renders the linear indices of an n x n matrix under the given layout
// as rows of numbers — the format of the paper's Fig. 6 tables.
func Grid(n int, kind Kind, block int) string {
	m := Matrix{N: n, Block: block, Kind: kind}
	var b strings.Builder
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%2d", m.Index(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
