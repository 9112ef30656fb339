// Package memory models the physical memory of a NUMA machine at page
// granularity. On the paper's testbed, data is placed on a socket's DRAM by
// the OS (first-touch), by the interleave policy, or explicitly by the
// application via mmap+mbind; NUMA-WS's library functions "are simply
// accomplished by calling the underlying mmap and mbind system calls".
//
// This package is the simulated equivalent: an Allocator hands out Regions,
// each Region is a range of simulated pages, and every page has a home
// socket assigned by an allocation Policy. The cache model consults the home
// socket of a page to decide whether an access is local or remote DRAM.
package memory

import (
	"fmt"
	"strings"
)

// PageSize is the simulated page size in bytes (4 KiB, as on Linux x86-64).
const PageSize = 4096

// LineSize is the cache line size in bytes; exported here because page and
// line geometry must agree between the memory and cache models.
const LineSize = 64

// SocketUnbound marks a page whose home socket is not yet decided. Under the
// first-touch policy pages start unbound and bind to the socket of the first
// core that touches them, exactly like Linux's default policy.
const SocketUnbound = -1

// Policy selects how a Region's pages map to sockets at allocation time.
type Policy interface {
	// Bind returns the home socket for page index pg (0-based within the
	// region) on a machine with sockets sockets, or SocketUnbound to defer
	// the decision to first touch.
	Bind(pg, sockets int) int
	// String names the policy for reports.
	String() string
}

// FirstTouch defers page binding until the first access; the page then binds
// to the accessing core's socket. This is the OS default the paper's Cilk
// Plus baseline runs under (they pick the better of first-touch and
// interleave per benchmark).
type FirstTouch struct{}

// Bind implements Policy; every page starts unbound.
func (FirstTouch) Bind(pg, sockets int) int { return SocketUnbound }

func (FirstTouch) String() string { return "first-touch" }

// Interleave spreads pages round-robin across all sockets, like
// numactl --interleave=all.
type Interleave struct{}

// Bind implements Policy.
func (Interleave) Bind(pg, sockets int) int { return pg % sockets }

func (Interleave) String() string { return "interleave" }

// BindTo places every page of the region on one socket, like mbind to a
// single node.
type BindTo struct{ Socket int }

// Bind implements Policy.
func (b BindTo) Bind(pg, sockets int) int { return b.Socket % sockets }

func (b BindTo) String() string { return fmt.Sprintf("bind(%d)", b.Socket) }

// BindBlocks partitions the region into Blocks equal contiguous chunks and
// binds the i'th chunk to socket Sockets[i % len(Sockets)]. This is the
// pattern Fig. 4's mergesort uses: "allocate the physical pages mapped in
// the ith quarters of the in and tmp arrays from the socket corresponding to
// the ith virtual place".
type BindBlocks struct {
	Blocks  int
	Sockets []int
	pages   int // total pages; set by the allocator before use
}

// Bind implements Policy.
func (b BindBlocks) Bind(pg, sockets int) int {
	if b.Blocks <= 0 || len(b.Sockets) == 0 || b.pages <= 0 {
		return SocketUnbound
	}
	per := (b.pages + b.Blocks - 1) / b.Blocks
	blk := pg / per
	if blk >= b.Blocks {
		blk = b.Blocks - 1
	}
	return b.Sockets[blk%len(b.Sockets)] % sockets
}

func (b BindBlocks) String() string {
	return fmt.Sprintf("bind-blocks(%d over %v)", b.Blocks, b.Sockets)
}

// Partition is the placement the NUMA-aware workloads use for banded data,
// generalized to any machine: the region splits into `places` contiguous
// blocks and the i'th block lands on socket i — Fig. 4's mmap+mbind pattern
// with the place count taken from the runtime instead of hard-wired to the
// paper's four sockets.
func Partition(places int) Policy {
	sockets := make([]int, places)
	for i := range sockets {
		sockets[i] = i
	}
	return BindBlocks{Blocks: places, Sockets: sockets}
}

// Region is a contiguous simulated allocation. Offsets into the region are
// bytes; the cache model converts them to global line and page addresses.
type Region struct {
	name  string
	id    int
	base  int64 // global byte address of the first byte
	size  int64
	home  []int32 // home socket per page; SocketUnbound until bound
	alloc *Allocator
}

// Name reports the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Size reports the region's length in bytes.
func (r *Region) Size() int64 { return r.size }

// Base reports the global byte address of the region's first byte. Global
// addresses let distinct regions share nothing: two regions never overlap a
// cache line.
func (r *Region) Base() int64 { return r.base }

// Pages reports the number of pages spanned by the region.
func (r *Region) Pages() int { return len(r.home) }

// HomeOf reports the home socket of the page containing byte offset off, or
// SocketUnbound if it has not been touched yet.
func (r *Region) HomeOf(off int64) int {
	return int(r.home[r.pageIndex(off)])
}

// TouchFrom binds the page containing off to socket s if it is unbound
// (first-touch), and reports the page's home socket afterwards.
func (r *Region) TouchFrom(off int64, s int) int {
	pg := r.pageIndex(off)
	if r.home[pg] == SocketUnbound {
		r.home[pg] = int32(s)
	}
	return int(r.home[pg])
}

// BindRange explicitly rebinds the pages overlapping [off, off+n) to socket
// s, the analogue of mbind on an existing mapping. Panics if the range is
// out of bounds.
func (r *Region) BindRange(off, n int64, s int) {
	if n <= 0 {
		return
	}
	first := r.pageIndex(off)
	last := r.pageIndex(off + n - 1)
	for pg := first; pg <= last; pg++ {
		r.home[pg] = int32(s)
	}
}

// GlobalLine converts a byte offset within the region to a global cache line
// address.
func (r *Region) GlobalLine(off int64) int64 {
	r.check(off)
	return (r.base + off) / LineSize
}

// GlobalPage converts a byte offset within the region to a global page
// address.
func (r *Region) GlobalPage(off int64) int64 {
	r.check(off)
	return (r.base + off) / PageSize
}

func (r *Region) pageIndex(off int64) int {
	r.check(off)
	return int((r.base+off)/PageSize - r.base/PageSize)
}

func (r *Region) check(off int64) {
	if off < 0 || off >= r.size {
		panic(fmt.Sprintf("memory: offset %d out of range for region %q of size %d", off, r.name, r.size))
	}
}

// Distribution reports, per socket, the number of the region's pages homed
// there; index len(result)-1 counts unbound pages.
func (r *Region) Distribution(sockets int) []int {
	dist := make([]int, sockets+1)
	for _, h := range r.home {
		if h == SocketUnbound {
			dist[sockets]++
		} else {
			dist[h]++
		}
	}
	return dist
}

// Allocator hands out non-overlapping Regions on a machine with a fixed
// socket count. The zero value is not usable; use NewAllocator.
type Allocator struct {
	sockets int
	next    int64
	regions []*Region
}

// NewAllocator returns an allocator for a machine with the given socket
// count.
func NewAllocator(sockets int) *Allocator {
	if sockets <= 0 {
		panic(fmt.Sprintf("memory: sockets must be positive, got %d", sockets))
	}
	return &Allocator{sockets: sockets}
}

// Sockets reports the machine's socket count.
func (a *Allocator) Sockets() int { return a.sockets }

// Alloc creates a page-aligned region of at least size bytes whose pages are
// bound according to pol. Size must be positive.
func (a *Allocator) Alloc(name string, size int64, pol Policy) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("memory: allocation size must be positive, got %d", size))
	}
	pages := int((size + PageSize - 1) / PageSize)
	// Propagate total page count into block policies that need it.
	if bb, ok := pol.(BindBlocks); ok {
		bb.pages = pages
		pol = bb
	}
	r := &Region{
		name:  name,
		id:    len(a.regions),
		base:  a.next,
		size:  size,
		home:  make([]int32, pages),
		alloc: a,
	}
	for pg := 0; pg < pages; pg++ {
		r.home[pg] = int32(pol.Bind(pg, a.sockets))
	}
	a.next += int64(pages) * PageSize
	a.regions = append(a.regions, r)
	return r
}

// String summarizes the allocator state for debugging.
func (a *Allocator) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocator: %d sockets, %d regions, %d bytes\n", a.sockets, len(a.regions), a.next)
	for _, r := range a.regions {
		fmt.Fprintf(&b, "  %-16s base=%-10d size=%-10d pages=%v\n", r.name, r.base, r.size, r.Distribution(a.sockets))
	}
	return b.String()
}
