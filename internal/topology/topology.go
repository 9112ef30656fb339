// Package topology models the NUMA machine topology that the NUMA-WS
// scheduler observes: sockets, cores, and the hop-distance matrix between
// sockets (the information numactl --hardware reports on a real machine).
//
// The paper's evaluation machine (Fig. 1) is a four-socket, 32-core Intel
// Xeon E5-4620 where each socket owns a last-level cache, a memory
// controller, and a DRAM bank. Sockets are connected point-to-point (QPI);
// socket 0 reaches sockets 1 and 2 in one hop and socket 3 in two hops.
package topology

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Topology describes a NUMA machine: how many sockets it has, how many cores
// live on each socket, and how far apart sockets are.
type Topology struct {
	sockets  int
	perSock  int
	distance [][]int // distance[i][j]: hop distance between sockets i and j
	key      string  // see Key; fixed once the machine is built
}

// New builds a topology with the given socket count and cores per socket,
// using the supplied inter-socket hop-distance matrix. The distance matrix
// must be square with side sockets, symmetric, and zero on the diagonal.
func New(sockets, coresPerSocket int, distance [][]int) (*Topology, error) {
	if sockets <= 0 {
		return nil, fmt.Errorf("topology: sockets must be positive, got %d", sockets)
	}
	if coresPerSocket <= 0 {
		return nil, fmt.Errorf("topology: coresPerSocket must be positive, got %d", coresPerSocket)
	}
	if len(distance) != sockets {
		return nil, fmt.Errorf("topology: distance matrix has %d rows, want %d", len(distance), sockets)
	}
	d := make([][]int, sockets)
	for i := range distance {
		if len(distance[i]) != sockets {
			return nil, fmt.Errorf("topology: distance row %d has %d entries, want %d", i, len(distance[i]), sockets)
		}
		d[i] = append([]int(nil), distance[i]...)
	}
	for i := 0; i < sockets; i++ {
		if d[i][i] != 0 {
			return nil, fmt.Errorf("topology: distance[%d][%d] = %d, want 0 on the diagonal", i, i, d[i][i])
		}
		for j := 0; j < sockets; j++ {
			if d[i][j] != d[j][i] {
				return nil, fmt.Errorf("topology: distance matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j && d[i][j] <= 0 {
				return nil, fmt.Errorf("topology: distance[%d][%d] = %d, want positive off-diagonal", i, j, d[i][j])
			}
		}
	}
	t := &Topology{sockets: sockets, perSock: coresPerSocket, distance: d}
	h := fnv.New64a()
	h.Write(t.render(nil))
	hex := strconv.FormatUint(h.Sum64(), 16)
	t.key = strconv.Itoa(sockets) + "x" + strconv.Itoa(coresPerSocket) + "-" + strings.Repeat("0", 16-len(hex)) + hex
	return t, nil
}

// MustNew is New but panics on error; for package-level machine presets.
func MustNew(sockets, coresPerSocket int, distance [][]int) *Topology {
	t, err := New(sockets, coresPerSocket, distance)
	if err != nil {
		panic(err)
	}
	return t
}

// XeonE5_4620 reproduces the paper's evaluation machine (Fig. 1): four
// sockets, eight cores each, point-to-point links such that socket 0 and
// socket 3 (and 1 and 2) are two hops apart and every other pair is one hop.
func XeonE5_4620() *Topology {
	return MustNew(4, 8, [][]int{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	})
}

// SingleSocket returns a degenerate UMA topology, useful as a baseline and
// in tests: one socket with the given core count.
func SingleSocket(cores int) *Topology {
	return MustNew(1, cores, [][]int{{0}})
}

// TwoSocket returns a two-socket topology with the given cores per socket.
func TwoSocket(coresPerSocket int) *Topology {
	return MustNew(2, coresPerSocket, [][]int{{0, 1}, {1, 0}})
}

// Sockets reports the number of sockets.
func (t *Topology) Sockets() int { return t.sockets }

// CoresPerSocket reports the number of cores on each socket.
func (t *Topology) CoresPerSocket() int { return t.perSock }

// Cores reports the total number of cores in the machine.
func (t *Topology) Cores() int { return t.sockets * t.perSock }

// Key is the machine's compact signature, the topology field of every
// run key (journal and store records): the shape for readability plus an
// FNV-64a hash of String(), which includes the distance matrix, so two
// same-shape machines with different distance structure never share a
// key. It is computed once, when the machine is built.
func (t *Topology) Key() string { return t.key }

// SocketOf reports the socket that owns the given core. Cores are numbered
// socket-major: cores [0, perSocket) are on socket 0, and so on.
func (t *Topology) SocketOf(core int) int {
	if core < 0 || core >= t.Cores() {
		panic(fmt.Sprintf("topology: core %d out of range [0,%d)", core, t.Cores()))
	}
	return core / t.perSock
}

// CoresOn returns the core ids on the given socket, in increasing order.
func (t *Topology) CoresOn(socket int) []int {
	lo, hi := t.CoreRange(socket)
	cores := make([]int, hi-lo)
	for i := range cores {
		cores[i] = lo + i
	}
	return cores
}

// CoreRange reports the socket's cores as the half-open id range [lo, hi):
// core numbering is socket-major, so a socket's cores are contiguous. Hot
// paths iterate this range instead of allocating the CoresOn slice.
func (t *Topology) CoreRange(socket int) (lo, hi int) {
	if socket < 0 || socket >= t.sockets {
		panic(fmt.Sprintf("topology: socket %d out of range [0,%d)", socket, t.sockets))
	}
	return socket * t.perSock, (socket + 1) * t.perSock
}

// Distance reports the hop distance between two sockets (0 for the same
// socket).
func (t *Topology) Distance(a, b int) int {
	return t.distance[a][b]
}

// SameShape reports whether two topologies describe the same machine:
// equal socket and per-socket core counts and an identical hop-distance
// matrix. Constructors return fresh values (presets are built per call),
// so shape equality — not pointer identity — is what "same machine" means
// to callers that key cached state on a topology.
func (t *Topology) SameShape(o *Topology) bool {
	if t == o {
		return true
	}
	if o == nil || t.sockets != o.sockets || t.perSock != o.perSock {
		return false
	}
	for i := range t.distance {
		for j := range t.distance[i] {
			if t.distance[i][j] != o.distance[i][j] {
				return false
			}
		}
	}
	return true
}

// MaxDistance reports the largest hop distance in the machine.
func (t *Topology) MaxDistance() int {
	max := 0
	for i := range t.distance {
		for _, d := range t.distance[i] {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Placement maps P workers onto cores. The paper packs workers tightly,
// "using the smallest number of sockets" (Fig. 9): workers fill socket 0's
// cores first, then socket 1's, and so on.
type Placement struct {
	Workers int
	Core    []int // Core[w]: core id of worker w
	Socket  []int // Socket[w]: socket id of worker w
	Used    int   // number of sockets that host at least one worker
}

// Pack places p workers tightly onto the machine, smallest number of sockets
// first, mirroring the paper's thread-pinning policy. It panics if p exceeds
// the core count or is not positive.
func (t *Topology) Pack(p int) *Placement {
	if p <= 0 || p > t.Cores() {
		panic(fmt.Sprintf("topology: cannot place %d workers on %d cores", p, t.Cores()))
	}
	pl := &Placement{
		Workers: p,
		Core:    make([]int, p),
		Socket:  make([]int, p),
	}
	for w := 0; w < p; w++ {
		pl.Core[w] = w // socket-major core numbering packs tightly by construction
		pl.Socket[w] = t.SocketOf(w)
	}
	pl.Used = (p + t.perSock - 1) / t.perSock
	return pl
}

// Spread places p workers evenly across all sockets (round-robin), the
// policy NUMA-WS uses at startup when the user asks for all sockets: "the
// runtime spreads out the worker threads evenly across the sockets".
func (t *Topology) Spread(p int) *Placement {
	if p <= 0 || p > t.Cores() {
		panic(fmt.Sprintf("topology: cannot place %d workers on %d cores", p, t.Cores()))
	}
	pl := &Placement{
		Workers: p,
		Core:    make([]int, p),
		Socket:  make([]int, p),
	}
	next := make([]int, t.sockets) // next free core index within each socket
	for w := 0; w < p; w++ {
		s := w % t.sockets
		for next[s] >= t.perSock { // socket full; spill to the next one
			s = (s + 1) % t.sockets
		}
		pl.Core[w] = s*t.perSock + next[s]
		pl.Socket[w] = s
		next[s]++
	}
	used := 0
	for _, n := range next {
		if n > 0 {
			used++
		}
	}
	pl.Used = used
	return pl
}

// WorkersOn returns the worker ids of a placement that live on the given
// socket, in increasing order.
func (pl *Placement) WorkersOn(socket int) []int {
	var ws []int
	for w, s := range pl.Socket {
		if s == socket {
			ws = append(ws, w)
		}
	}
	return ws
}

// String renders the machine in the spirit of the paper's Fig. 1: one box
// per socket listing its cores, plus the hop-distance matrix.
func (t *Topology) String() string { return string(t.render(nil)) }

// render appends String's text to b. It formats with strconv rather than
// fmt, so building a machine (New hashes this text) draws nothing from
// fmt's pooled printers and allocates the same on every call.
func (t *Topology) render(b []byte) []byte {
	b = append(b, "NUMA machine: "...)
	b = strconv.AppendInt(b, int64(t.sockets), 10)
	b = append(b, " sockets x "...)
	b = strconv.AppendInt(b, int64(t.perSock), 10)
	b = append(b, " cores\n"...)
	for s := 0; s < t.sockets; s++ {
		b = append(b, "  Socket "...)
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, " [LLC, MC, DRAM]: cores "...)
		b = strconv.AppendInt(b, int64(s*t.perSock), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64((s+1)*t.perSock-1), 10)
		b = append(b, '\n')
	}
	b = append(b, "  node distances (hops):\n      "...)
	for j := 0; j < t.sockets; j++ {
		b = appendCell(b, j)
	}
	b = append(b, '\n')
	for i := 0; i < t.sockets; i++ {
		b = append(b, "  "...)
		b = appendCell(b, i)
		for j := 0; j < t.sockets; j++ {
			b = appendCell(b, t.distance[i][j])
		}
		b = append(b, '\n')
	}
	return b
}

// appendCell appends n right-aligned in four columns, as %4d formats it.
func appendCell(b []byte, n int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < 4; i++ {
		b = append(b, ' ')
	}
	return append(b, d...)
}
