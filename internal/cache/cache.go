// Package cache models the memory hierarchy of a NUMA machine: a private
// cache per core (L1+L2 merged into one level), a shared last-level cache
// per socket, invalidation-based coherence between them, and DRAM whose
// latency grows with the hop distance between the accessing socket and the
// page's home socket.
//
// The paper defines work inflation as extra processing time during parallel
// runs "due to effects experienced only during parallel executions such as
// additional cache misses, remote memory accesses, and memory bandwidth
// issues", and notes access latency spans tens of cycles (local LLC), over a
// hundred (local DRAM or remote LLC), to a few hundred (remote DRAM). This
// model charges exactly those costs so that scheduler decisions — where a
// steal lands, whether a frame runs on its designated socket — translate
// into the same inflation phenomena.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
	"repro/internal/topology"
)

// Geometry fixes the cache sizes. Sizes are scaled down relative to the
// paper's hardware in the same proportion as the workload inputs, so
// capacity effects (a socket's working set fitting or not fitting in LLC)
// are preserved.
type Geometry struct {
	PrivateBytes int // per-core private cache capacity
	PrivateWays  int // private cache associativity
	LLCBytes     int // per-socket shared LLC capacity
	LLCWays      int // LLC associativity
}

// DefaultGeometry mirrors the paper's 256 KiB private L2 and 16 MiB LLC,
// scaled down 16x to match the scaled workload inputs.
func DefaultGeometry() Geometry {
	return Geometry{
		PrivateBytes: 64 << 10,
		PrivateWays:  8,
		LLCBytes:     1 << 20,
		LLCWays:      16,
	}
}

// Latency fixes per-line access costs in cycles.
type Latency struct {
	PrivateHit  int64 // hit in the core's own cache ("tens of cycles" bucket)
	LocalLLC    int64 // hit in the socket's LLC
	RemoteCache int64 // line supplied by a cache on another socket (coherence transfer), before per-hop cost
	DRAMBase    int64 // DRAM access on the local socket
	PerHop      int64 // added per hop of socket distance (remote LLC or remote DRAM)
	// StreamDivisor divides the DRAM cost of lines that continue a
	// contiguous run within one Access call, modelling the hardware
	// prefetcher and open DRAM rows. The blocked Z-Morton layout's serial
	// speedup (matmul-z TS 73.6s vs matmul 190.9s) comes from exactly this
	// effect: "it traverses the matrices in a way that enables the
	// prefetcher".
	StreamDivisor int64
	// WriteInvalidate is the extra cost of a write that must invalidate
	// copies in other caches (destructive sharing).
	WriteInvalidate int64
	// DRAMOccupancy models memory bandwidth: each DRAM line fill costs the
	// home socket's memory controller this many cycles of service capacity.
	// When a socket's recent fill demand exceeds its capacity
	// (DRAMChannels lines in parallel), DRAM costs at that socket are
	// multiplied by the congestion ratio, up to DRAMMaxCongestion. This is
	// the "memory bandwidth issues" component of work inflation the paper
	// lists alongside extra misses and remote accesses: when many cores
	// hammer one socket's DRAM (the first-touch-on-socket-0 baseline),
	// congestion dominates, and spreading or localizing the traffic — what
	// NUMA-WS placement does — removes it. Zero disables bandwidth
	// modelling (pure latency).
	//
	// The model is epoch-based rather than a per-access queue: strands
	// execute atomically in the simulator, so a true queue would serialize
	// whole strands against each other and wildly overstate contention;
	// a demand-proportional latency multiplier measured over fixed virtual
	// time epochs is stable under strand-atomic interleaving.
	DRAMOccupancy int64
	// DRAMChannels is the number of independent channels per memory
	// controller; zero means 4, as on the paper's four-channel Xeon
	// E5-4620. Capacity per epoch is epochLen * DRAMChannels /
	// DRAMOccupancy line fills.
	DRAMChannels int
	// DRAMMaxCongestion caps the congestion multiplier; zero means 4.
	DRAMMaxCongestion int64
}

// DefaultLatency follows the paper's qualitative numbers: tens of cycles for
// local caches, over a hundred for local DRAM and remote LLC, a few hundred
// for remote DRAM.
func DefaultLatency() Latency {
	return Latency{
		PrivateHit:        3,
		LocalLLC:          30,
		RemoteCache:       90,
		DRAMBase:          120,
		PerHop:            90,
		StreamDivisor:     4,
		WriteInvalidate:   60,
		DRAMOccupancy:     6,
		DRAMChannels:      4,
		DRAMMaxCongestion: 4,
	}
}

// Kind classifies where an access was serviced, for statistics.
type Kind int

// Access service points, from fastest to slowest.
const (
	KindPrivateHit Kind = iota
	KindLocalLLC
	KindRemoteCache
	KindLocalDRAM
	KindRemoteDRAM
	numKinds
)

// String names the access kind.
func (k Kind) String() string {
	switch k {
	case KindPrivateHit:
		return "private-hit"
	case KindLocalLLC:
		return "local-llc"
	case KindRemoteCache:
		return "remote-cache"
	case KindLocalDRAM:
		return "local-dram"
	case KindRemoteDRAM:
		return "remote-dram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Stats accumulates access counts and cycles by service point.
type Stats struct {
	Count  [numKinds]int64
	Cycles [numKinds]int64
}

// Total reports the total number of line accesses.
func (s *Stats) Total() int64 {
	var t int64
	for _, c := range s.Count {
		t += c
	}
	return t
}

// TotalCycles reports the total memory cycles charged.
func (s *Stats) TotalCycles() int64 {
	var t int64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// Remote reports the number of accesses serviced off-socket.
func (s *Stats) Remote() int64 {
	return s.Count[KindRemoteCache] + s.Count[KindRemoteDRAM]
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	for k := 0; k < int(numKinds); k++ {
		s.Count[k] += other.Count[k]
		s.Cycles[k] += other.Cycles[k]
	}
}

// setAssoc is a set-associative cache of line tags with LRU replacement,
// stored as one flat tag array (the simulator touches it for every modelled
// cache line). Each set keeps its valid tags in recency order, most recent
// first, with its invalid ways (-1) after them: a hit moves its tag to the
// front, a fill takes the first invalid way or else evicts the last (least
// recently used) tag, and an invalidation closes the gap it leaves. That
// order is all an LRU clock would record, so no timestamps are kept.
type setAssoc struct {
	sets int
	ways int
	mask int64   // sets-1 when sets is a power of two, else -1
	tag  []int64 // sets*ways entries; -1 = invalid
}

func newSetAssoc(bytes, ways int) *setAssoc {
	lines := bytes / memory.LineSize
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &setAssoc{
		sets: sets,
		ways: ways,
		mask: -1,
		tag:  make([]int64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.mask = int64(sets - 1)
	}
	c.flush()
	return c
}

// set returns the ways of line's set, in recency order.
func (c *setAssoc) set(line int64) []int64 {
	var s int
	if c.mask >= 0 {
		s = int(line & c.mask)
	} else {
		s = int(line % int64(c.sets))
	}
	base := s * c.ways
	return c.tag[base : base+c.ways]
}

// lookup reports whether line is present, making it the most recent.
func (c *setAssoc) lookup(line int64) bool {
	set := c.set(line)
	for w, t := range set {
		if t == line {
			copy(set[1:w+1], set[:w])
			set[0] = line
			return true
		}
		if t < 0 {
			break
		}
	}
	return false
}

// insert places line in its set as the most recent, evicting the LRU way
// if the set is full, and returns the evicted line or -1. Inserting a
// present line only refreshes it.
func (c *setAssoc) insert(line int64) (evicted int64) {
	set := c.set(line)
	w := 0
	for ; w < len(set)-1; w++ {
		if set[w] == line || set[w] < 0 {
			break
		}
	}
	if set[w] == line {
		evicted = -1
	} else {
		evicted = set[w]
	}
	copy(set[1:w+1], set[:w])
	set[0] = line
	return evicted
}

// invalidate removes line if present and reports whether it was.
func (c *setAssoc) invalidate(line int64) bool {
	set := c.set(line)
	for w, t := range set {
		if t == line {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = -1
			return true
		}
		if t < 0 {
			break
		}
	}
	return false
}

// flush invalidates every line, returning the cache to its just-constructed
// state. Used by Reset and to model the cold cache a worker has after
// migration in targeted experiments.
func (c *setAssoc) flush() {
	for i := range c.tag {
		c.tag[i] = -1
	}
}

// bitset is a fixed-width bitmask over entity ids (cores or sockets), sized
// once at hierarchy construction. It replaces the old uint64/uint32 masks so
// the directory scales to machines of any shape instead of panicking past
// 64 cores or 32 sockets.
type bitset []uint64

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }

// any reports whether any bit is set.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// onlyKeep clears every bit except i (bit i keeps its current value).
func (b bitset) onlyKeep(i int) {
	keep := b[i>>6] & (1 << uint(i&63))
	for wi := range b {
		b[wi] = 0
	}
	b[i>>6] = keep
}

func bitsetWords(n int) int { return (n + 63) / 64 }

// lineInfo is the coherence directory entry for one line: which private
// caches and which LLCs currently hold it. On machines up to 64 cores and
// 64 sockets — every preset, and the paper's machine — the bitsets alias
// the inline backing array, so an entry is still a single allocation with
// no extra pointer chase; only bigger machines spill to a heap-allocated
// word slice.
type lineInfo struct {
	priv   bitset // over cores
	llc    bitset // over sockets
	inline [2]uint64
}

// Hierarchy is the full machine cache model.
type Hierarchy struct {
	top  *topology.Topology
	geo  Geometry
	lat  Latency
	priv []*setAssoc // indexed by core
	llc  []*setAssoc // indexed by socket
	// sockOf maps a core to its socket, resolved once per call instead of
	// dividing per line.
	sockOf []int
	// dir is the coherence directory, indexed by global line number: a
	// run's allocator hands out addresses densely from 0, so a slice grown
	// geometrically to the highest line touched replaces a hash map. live
	// counts its non-nil entries and hi bounds the lines touched since the
	// last Reset, so Reset clears only that prefix.
	dir  []*lineInfo
	live int
	hi   int
	// Directory entries are carved out of block allocations: entries are
	// the simulator's dominant allocation count, and handing them out from
	// a block turns ~256 allocations into one. An entry dropped when no
	// cache holds its line any more goes to free, which info takes from
	// first, so the blocks grow with the live entries (bounded by cache
	// capacity), not with the run's misses. The blocks are kept and the
	// cursor rewound on Reset, so a reused hierarchy re-hands the same
	// memory instead of allocating fresh blocks every run.
	slabs   [][]lineInfo
	slabI   int // block the cursor is in
	slabOff int // next free entry within that block
	free    []*lineInfo
	// perCore statistics, indexed by core.
	perCore []Stats
	// Congestion tracking: per socket, line-fill counts per virtual-time
	// epoch (a small ring indexed by epoch number).
	epochCount [][congestionRing]int64
	epochTag   [][congestionRing]int64
	// QueueCycles accumulates total extra cycles charged to congestion,
	// for reports.
	QueueCycles int64
}

// epochLen is the congestion-measurement window in cycles; congestionRing
// is how many epochs the ring remembers.
const (
	epochLen       = 32768
	congestionRing = 64
)

// NewHierarchy builds the cache model for the given machine; any socket and
// core count is accepted (the coherence directory sizes its bitmasks to the
// topology). It panics, naming the field, on a geometry with no ways or a
// DRAM occupancy that leaves a controller no capacity per epoch.
func NewHierarchy(top *topology.Topology, geo Geometry, lat Latency) *Hierarchy {
	if geo.PrivateWays <= 0 {
		panic(fmt.Sprintf("cache: Geometry.PrivateWays must be positive, got %d", geo.PrivateWays))
	}
	if geo.LLCWays <= 0 {
		panic(fmt.Sprintf("cache: Geometry.LLCWays must be positive, got %d", geo.LLCWays))
	}
	if ch := lat.channels(); lat.DRAMOccupancy > epochLen*ch {
		panic(fmt.Sprintf("cache: Latency.DRAMOccupancy %d exceeds the %d cycles of service an epoch gives %d channels, leaving no capacity",
			lat.DRAMOccupancy, epochLen*ch, ch))
	}
	h := &Hierarchy{
		top:        top,
		geo:        geo,
		lat:        lat,
		priv:       make([]*setAssoc, top.Cores()),
		llc:        make([]*setAssoc, top.Sockets()),
		sockOf:     make([]int, top.Cores()),
		perCore:    make([]Stats, top.Cores()),
		epochCount: make([][congestionRing]int64, top.Sockets()),
		epochTag:   make([][congestionRing]int64, top.Sockets()),
	}
	for i := range h.priv {
		h.priv[i] = newSetAssoc(geo.PrivateBytes, geo.PrivateWays)
		h.sockOf[i] = top.SocketOf(i)
	}
	for i := range h.llc {
		h.llc[i] = newSetAssoc(geo.LLCBytes, geo.LLCWays)
	}
	return h
}

// Matches reports whether h models exactly the machine described by the
// arguments, so a caller holding a used hierarchy can tell if Reset-and-reuse
// is equivalent to building a fresh one. Topologies are compared by Key,
// the machine identity every run key uses, not by pointer: preset
// constructors and parsers return fresh values per call.
func (h *Hierarchy) Matches(top *topology.Topology, geo Geometry, lat Latency) bool {
	return h.geo == geo && h.lat == lat && h.top.Key() == top.Key()
}

// Reset returns the hierarchy to its just-constructed state — every cache
// empty, directory empty, statistics and congestion history zeroed — while
// keeping the backing arrays, so a reused hierarchy costs no construction
// allocations. A Reset hierarchy is behaviorally indistinguishable from
// NewHierarchy with the same arguments (pinned by tests).
func (h *Hierarchy) Reset() {
	for _, c := range h.priv {
		c.flush()
	}
	for _, c := range h.llc {
		c.flush()
	}
	clear(h.dir[:h.hi])
	h.live, h.hi = 0, 0
	h.slabI, h.slabOff = 0, 0
	h.free = h.free[:0]
	clear(h.perCore)
	for i := range h.epochCount {
		h.epochCount[i] = [congestionRing]int64{}
		h.epochTag[i] = [congestionRing]int64{}
	}
	h.QueueCycles = 0
}

// Latency exposes the cost table (for reports and tests).
func (h *Hierarchy) Latency() Latency { return h.lat }

// StatsOf returns the accumulated statistics for one core.
func (h *Hierarchy) StatsOf(core int) *Stats { return &h.perCore[core] }

// TotalStats sums statistics over all cores.
func (h *Hierarchy) TotalStats() Stats {
	var t Stats
	for i := range h.perCore {
		t.Add(&h.perCore[i])
	}
	return t
}

// entry returns line's directory entry, or nil when no cache holds it.
func (h *Hierarchy) entry(line int64) *lineInfo {
	if line < 0 || line >= int64(len(h.dir)) {
		return nil
	}
	return h.dir[line]
}

// info returns line's directory entry, creating an empty one if no cache
// holds it.
func (h *Hierarchy) info(line int64) *lineInfo {
	if line >= int64(len(h.dir)) {
		grown := make([]*lineInfo, max(2*len(h.dir), int(line)+1))
		copy(grown, h.dir[:h.hi])
		h.dir = grown
	}
	li := h.dir[line]
	if li != nil {
		return li
	}
	if n := len(h.free); n > 0 {
		// A dropped entry holds no bits and keeps its bitsets' backing.
		li, h.free = h.free[n-1], h.free[:n-1]
	} else {
		// Entries come from the slab; use the inline backing when the
		// machine fits, and carve both spilled bitsets out of one
		// allocation when it does not.
		if h.slabI == len(h.slabs) {
			h.slabs = append(h.slabs, make([]lineInfo, 256))
		}
		li = &h.slabs[h.slabI][h.slabOff]
		if h.slabOff++; h.slabOff == len(h.slabs[h.slabI]) {
			h.slabI++
			h.slabOff = 0
		}
		*li = lineInfo{} // may hold stale bits from before a Reset
		pw, lw := bitsetWords(h.top.Cores()), bitsetWords(h.top.Sockets())
		if pw == 1 && lw == 1 {
			li.priv = li.inline[:1]
			li.llc = li.inline[1:2]
		} else {
			words := make([]uint64, pw+lw)
			li.priv = words[:pw]
			li.llc = words[pw:]
		}
	}
	h.dir[line] = li
	h.live++
	h.hi = max(h.hi, int(line)+1)
	return li
}

func (h *Hierarchy) dropIfEmpty(line int64, li *lineInfo) {
	if !li.priv.any() && !li.llc.any() {
		h.dir[line] = nil
		h.live--
		h.free = append(h.free, li)
	}
}

// evictFromPrivate records that core's private cache dropped line (-1, an
// empty way, is no line).
func (h *Hierarchy) evictFromPrivate(core int, line int64) {
	if li := h.entry(line); li != nil {
		li.priv.clear(core)
		h.dropIfEmpty(line, li)
	}
}

// evictFromLLC records that socket's LLC dropped line (non-inclusive: lines
// may remain in private caches).
func (h *Hierarchy) evictFromLLC(socket int, line int64) {
	if li := h.entry(line); li != nil {
		li.llc.clear(socket)
		h.dropIfEmpty(line, li)
	}
}

// nearestHolder returns the hop distance to the closest socket other than
// from whose LLC or private caches hold the line, or -1 if none. It visits
// only the directory's set bits.
func (h *Hierarchy) nearestHolder(from int, li *lineInfo) int {
	best := -1
	closer := func(s int) {
		if s != from {
			if d := h.top.Distance(from, s); best == -1 || d < best {
				best = d
			}
		}
	}
	for wi, w := range li.llc {
		for ; w != 0; w &= w - 1 {
			closer(wi<<6 + bits.TrailingZeros64(w))
		}
	}
	for wi, w := range li.priv {
		for ; w != 0; w &= w - 1 {
			closer(h.sockOf[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	return best
}

// invalidateOthers removes the line from every cache except the private
// cache of core and the LLC of its socket, and reports whether any copy
// existed elsewhere.
func (h *Hierarchy) invalidateOthers(core, socket int, line int64) bool {
	li := h.entry(line)
	if li == nil {
		return false
	}
	inPriv := invalidateHolders(h.priv, li.priv, core, line)
	inLLC := invalidateHolders(h.llc, li.llc, socket, line)
	h.dropIfEmpty(line, li)
	return inPriv || inLLC
}

// invalidateHolders removes line from each cache whose bit is set in held,
// except caches[keep], leaves held with only keep's bit, and reports
// whether it removed any copy. It visits only the set bits.
func invalidateHolders(caches []*setAssoc, held bitset, keep int, line int64) bool {
	any := false
	for wi, w := range held {
		if wi == keep>>6 {
			w &^= 1 << uint(keep&63)
		}
		for ; w != 0; w &= w - 1 {
			caches[wi<<6+bits.TrailingZeros64(w)].invalidate(line)
			any = true
		}
	}
	held.onlyKeep(keep)
	return any
}

// Access charges one cache-line access by the given core at virtual time
// now. home is the page's home socket (memory.SocketUnbound is treated as
// local DRAM, the cheapest case, because an unbound page has no remote cost
// yet). streaming marks the line as a continuation of a contiguous run,
// eligible for the prefetch discount on DRAM fills. It returns the cycle
// cost and where the access was serviced. line is a global line number as
// memory.Region.GlobalLine computes it; allocators hand those out densely
// from 0, and the directory grows to the highest line accessed.
func (h *Hierarchy) Access(now int64, core int, line int64, home int, write, streaming bool) (int64, Kind) {
	return h.access(now, core, h.sockOf[core], line, home, write, streaming)
}

// access is Access with the core's socket already resolved.
func (h *Hierarchy) access(now int64, core, socket int, line int64, home int, write, streaming bool) (int64, Kind) {
	cost, kind := h.service(now, core, socket, line, home, streaming)
	if write && h.invalidateOthers(core, socket, line) {
		cost += h.lat.WriteInvalidate
	}
	st := &h.perCore[core]
	st.Count[kind]++
	st.Cycles[kind] += cost
	return cost, kind
}

func (h *Hierarchy) service(now int64, core, socket int, line int64, home int, streaming bool) (int64, Kind) {
	// 1. Private cache.
	if h.priv[core].lookup(line) {
		return h.lat.PrivateHit, KindPrivateHit
	}
	// 2. Socket-local LLC.
	if h.llc[socket].lookup(line) {
		h.fillPrivate(core, line)
		return h.lat.LocalLLC, KindLocalLLC
	}
	li := h.info(line)
	// 3. A cache on another socket (coherence transfer).
	if d := h.nearestHolder(socket, li); d >= 0 {
		h.fill(core, socket, line)
		return h.lat.RemoteCache + int64(d)*h.lat.PerHop, KindRemoteCache
	}
	// 4. DRAM on the home socket: latency by distance plus bandwidth
	// queuing at the home memory controller.
	hops := 0
	bank := socket
	if home != memory.SocketUnbound {
		hops = h.top.Distance(socket, home)
		bank = home
	}
	cost := h.lat.DRAMBase + int64(hops)*h.lat.PerHop
	if streaming && h.lat.StreamDivisor > 1 {
		cost /= h.lat.StreamDivisor
	}
	cost += h.congest(now, bank, cost)
	h.fill(core, socket, line)
	if hops == 0 {
		return cost, KindLocalDRAM
	}
	return cost, KindRemoteDRAM
}

// congest records one line fill at the bank socket's memory controller at
// virtual time now, and returns the extra cycles the access pays if the
// previous epoch's demand at that controller exceeded its capacity.
func (h *Hierarchy) congest(now int64, bank int, dramCost int64) int64 {
	if h.lat.DRAMOccupancy <= 0 {
		return 0
	}
	epoch := now / epochLen
	slot := int(epoch % congestionRing)
	if h.epochTag[bank][slot] != epoch {
		h.epochTag[bank][slot] = epoch
		h.epochCount[bank][slot] = 0
	}
	h.epochCount[bank][slot]++

	// Demand from the most recent completed epoch.
	prev := epoch - 1
	pslot := int(prev % congestionRing)
	if prev < 0 || h.epochTag[bank][pslot] != prev {
		return 0
	}
	capacity := epochLen * h.lat.channels() / h.lat.DRAMOccupancy
	demand := h.epochCount[bank][pslot]
	if demand <= capacity {
		return 0
	}
	maxC := h.lat.DRAMMaxCongestion
	if maxC <= 0 {
		maxC = 4
	}
	// Extra cost proportional to overload, capped: factor = demand/capacity.
	extra := dramCost * (demand - capacity) / capacity
	if extra > dramCost*(maxC-1) {
		extra = dramCost * (maxC - 1)
	}
	h.QueueCycles += extra
	return extra
}

// channels is DRAMChannels with its zero-means-4 default applied.
func (l Latency) channels() int64 {
	if l.DRAMChannels <= 0 {
		return 4
	}
	return int64(l.DRAMChannels)
}

// fill installs line in both the core's private cache and its socket's LLC.
func (h *Hierarchy) fill(core, socket int, line int64) {
	if ev := h.llc[socket].insert(line); ev >= 0 {
		h.evictFromLLC(socket, ev)
	}
	h.info(line).llc.set(socket)
	h.fillPrivate(core, line)
}

func (h *Hierarchy) fillPrivate(core int, line int64) {
	if ev := h.priv[core].insert(line); ev >= 0 {
		h.evictFromPrivate(core, ev)
	}
	h.info(line).priv.set(core)
}

// AccessRange charges an access to the byte range [off, off+n) of region r
// by core, starting at virtual time now and walking it line by line. Pages
// bound by first-touch bind to the accessing core's socket, exactly like
// the OS policy. Lines after the first of each page-contiguous run are
// marked streaming. It returns the total cycles charged.
func (h *Hierarchy) AccessRange(now int64, core int, r *memory.Region, off, n int64, write bool) int64 {
	return h.accessRange(now, core, h.sockOf[core], r, off, n, write)
}

// accessRange is AccessRange with the core's socket already resolved. A
// page's home changes only when it is first touched, so it is resolved on
// the run's first line and on the first line of each later page — exactly
// the lines that are not streaming — and reused for the rest of the page.
func (h *Hierarchy) accessRange(now int64, core, socket int, r *memory.Region, off, n int64, write bool) int64 {
	if n <= 0 {
		return 0
	}
	var total int64
	home := memory.SocketUnbound
	firstLine := r.GlobalLine(off)
	lastLine := r.GlobalLine(off + n - 1)
	for line := firstLine; line <= lastLine; line++ {
		streaming := line != firstLine && line%(memory.PageSize/memory.LineSize) != 0
		if !streaming {
			home = r.TouchFrom(max(line*memory.LineSize-r.Base(), 0), socket)
		}
		c, _ := h.access(now+total, core, socket, line, home, write, streaming)
		total += c
	}
	return total
}

// AccessStrided charges accesses to count elements of size elem bytes,
// starting at off with the given stride in bytes — the pattern of a
// row-major matrix column walk or strided gather. Strides other than elem
// defeat streaming. It returns total cycles.
func (h *Hierarchy) AccessStrided(now int64, core int, r *memory.Region, off, stride, elem int64, count int, write bool) int64 {
	socket := h.sockOf[core]
	var total int64
	for i := 0; i < count; i++ {
		o := off + int64(i)*stride
		total += h.accessRange(now+total, core, socket, r, o, elem, write)
	}
	return total
}

// FlushCore empties one core's private cache (used by tests and by
// migration experiments).
func (h *Hierarchy) FlushCore(core int) {
	c := h.priv[core]
	for i := range c.tag {
		h.evictFromPrivate(core, c.tag[i])
	}
	c.flush()
}

// DirectorySize reports the number of tracked lines (bounded by total cache
// capacity; used by tests to check the directory does not leak).
func (h *Hierarchy) DirectorySize() int { return h.live }
