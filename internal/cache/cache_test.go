package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/topology"
)

// tnext supplies strictly increasing virtual times so the latency-focused
// tests never trigger bandwidth queuing (each access arrives long after the
// previous one finished).
var tclock int64

func tnext() int64 {
	tclock += 1_000_000
	return tclock
}

func newTestHierarchy() (*Hierarchy, *memory.Allocator) {
	top := topology.XeonE5_4620()
	return NewHierarchy(top, DefaultGeometry(), DefaultLatency()), memory.NewAllocator(top.Sockets())
}

func TestColdMissThenHit(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()

	cost, kind := h.Access(tnext(), 0, 100, 0, false, false)
	if kind != KindLocalDRAM {
		t.Fatalf("first access kind = %v, want local-dram", kind)
	}
	if cost != lat.DRAMBase {
		t.Errorf("first access cost = %d, want %d", cost, lat.DRAMBase)
	}

	cost, kind = h.Access(tnext(), 0, 100, 0, false, false)
	if kind != KindPrivateHit {
		t.Fatalf("second access kind = %v, want private-hit", kind)
	}
	if cost != lat.PrivateHit {
		t.Errorf("second access cost = %d, want %d", cost, lat.PrivateHit)
	}
}

func TestLocalLLCHitAcrossCores(t *testing.T) {
	h, _ := newTestHierarchy()
	// Core 0 pulls the line in; core 1 (same socket) should hit the LLC.
	h.Access(tnext(), 0, 42, 0, false, false)
	_, kind := h.Access(tnext(), 1, 42, 0, false, false)
	if kind != KindLocalLLC {
		t.Errorf("same-socket second core kind = %v, want local-llc", kind)
	}
}

func TestRemoteCacheTransfer(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	// Core 0 (socket 0) pulls the line; core 8 (socket 1, one hop) should
	// get a coherence transfer rather than DRAM.
	h.Access(tnext(), 0, 7, 0, false, false)
	cost, kind := h.Access(tnext(), 8, 7, 0, false, false)
	if kind != KindRemoteCache {
		t.Fatalf("cross-socket access kind = %v, want remote-cache", kind)
	}
	want := lat.RemoteCache + lat.PerHop // one hop
	if cost != want {
		t.Errorf("cross-socket cost = %d, want %d", cost, want)
	}
	// Two hops: socket 0 -> socket 3 (core 24).
	h2, _ := newTestHierarchy()
	h2.Access(tnext(), 0, 7, 0, false, false)
	cost, kind = h2.Access(tnext(), 24, 7, 0, false, false)
	if kind != KindRemoteCache {
		t.Fatalf("two-hop access kind = %v, want remote-cache", kind)
	}
	want = lat.RemoteCache + 2*lat.PerHop
	if cost != want {
		t.Errorf("two-hop cost = %d, want %d", cost, want)
	}
}

func TestRemoteDRAMByDistance(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	cases := []struct {
		core int
		home int
		hops int64
		kind Kind
	}{
		{0, 0, 0, KindLocalDRAM},  // socket 0 -> home 0
		{0, 1, 1, KindRemoteDRAM}, // socket 0 -> home 1 (one hop)
		{0, 3, 2, KindRemoteDRAM}, // socket 0 -> home 3 (two hops)
	}
	for i, tc := range cases {
		line := int64(1000 + i) // distinct cold lines
		cost, kind := h.Access(tnext(), tc.core, line, tc.home, false, false)
		if kind != tc.kind {
			t.Errorf("case %d: kind = %v, want %v", i, kind, tc.kind)
		}
		if want := lat.DRAMBase + tc.hops*lat.PerHop; cost != want {
			t.Errorf("case %d: cost = %d, want %d", i, cost, want)
		}
	}
}

func TestUnboundPageCostsLocal(t *testing.T) {
	h, _ := newTestHierarchy()
	cost, kind := h.Access(tnext(), 0, 5, memory.SocketUnbound, false, false)
	if kind != KindLocalDRAM || cost != h.Latency().DRAMBase {
		t.Errorf("unbound access = (%d, %v), want (%d, local-dram)", cost, kind, h.Latency().DRAMBase)
	}
}

func TestStreamingDiscount(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	c1, _ := h.Access(tnext(), 0, 2000, 3, false, false) // two-hop DRAM, no stream
	c2, _ := h.Access(tnext(), 0, 2001, 3, false, true)  // streaming continuation
	if c2 >= c1 {
		t.Errorf("streaming access cost %d, want < non-streaming %d", c2, c1)
	}
	want := (lat.DRAMBase + 2*lat.PerHop) / lat.StreamDivisor
	if c2 != want {
		t.Errorf("streaming cost = %d, want %d", c2, want)
	}
	// Streaming never applies to cache hits.
	c3, kind := h.Access(tnext(), 0, 2001, 3, false, true)
	if kind != KindPrivateHit || c3 != lat.PrivateHit {
		t.Errorf("streaming hit = (%d, %v), want (%d, private-hit)", c3, kind, lat.PrivateHit)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	// Cores 0 and 8 both read the line.
	h.Access(tnext(), 0, 9, 0, false, false)
	h.Access(tnext(), 8, 9, 0, false, false)
	if _, kind := h.Access(tnext(), 8, 9, 0, false, false); kind != KindPrivateHit {
		t.Fatalf("core 8 re-read kind = %v, want private-hit", kind)
	}
	// Core 0 writes: core 8's copy must be invalidated and the write pays
	// the invalidation penalty.
	cost, kind := h.Access(tnext(), 0, 9, 0, true, false)
	if kind != KindPrivateHit {
		t.Fatalf("writer kind = %v, want private-hit", kind)
	}
	if cost != lat.PrivateHit+lat.WriteInvalidate {
		t.Errorf("writer cost = %d, want %d", cost, lat.PrivateHit+lat.WriteInvalidate)
	}
	// Core 8 must now miss (its socket LLC was invalidated too, so it gets
	// the line from socket 0's caches).
	_, kind = h.Access(tnext(), 8, 9, 0, false, false)
	if kind != KindRemoteCache {
		t.Errorf("invalidated reader kind = %v, want remote-cache", kind)
	}
}

func TestWriteWithoutSharersHasNoPenalty(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	h.Access(tnext(), 0, 11, 0, false, false)
	cost, _ := h.Access(tnext(), 0, 11, 0, true, false)
	if cost != lat.PrivateHit {
		t.Errorf("exclusive write cost = %d, want %d", cost, lat.PrivateHit)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 lines, 2 ways, 1 set.
	c := newSetAssoc(2*memory.LineSize, 2)
	if c.sets != 1 || c.ways != 2 {
		t.Fatalf("geometry = %d sets x %d ways, want 1x2", c.sets, c.ways)
	}
	c.insert(1)
	c.insert(2)
	c.lookup(1) // make 2 the LRU
	if ev := c.insert(3); ev != 2 {
		t.Errorf("evicted %d, want 2 (LRU)", ev)
	}
	if !c.lookup(1) || !c.lookup(3) || c.lookup(2) {
		t.Error("cache contents wrong after eviction")
	}
}

func TestInsertExistingIsNoEviction(t *testing.T) {
	c := newSetAssoc(2*memory.LineSize, 2)
	c.insert(1)
	if ev := c.insert(1); ev != -1 {
		t.Errorf("re-insert evicted %d, want -1", ev)
	}
}

func TestFlushCore(t *testing.T) {
	h, _ := newTestHierarchy()
	h.Access(tnext(), 0, 77, 0, false, false)
	h.FlushCore(0)
	_, kind := h.Access(tnext(), 0, 77, 0, false, false)
	if kind == KindPrivateHit {
		t.Errorf("post-flush access kind = %v, want a miss", kind)
	}
}

func TestAccessRangeFirstTouch(t *testing.T) {
	h, alloc := newTestHierarchy()
	r := alloc.Alloc("ft", 2*memory.PageSize, memory.FirstTouch{})
	// Core 9 is on socket 1; its touch binds the page there.
	h.AccessRange(tnext(), 9, r, 0, 128, false)
	if got := r.HomeOf(0); got != 1 {
		t.Errorf("page home after first touch = %d, want 1", got)
	}
	// A later touch by socket 0 does not rebind.
	h.AccessRange(tnext(), 0, r, 256, 128, false)
	if got := r.HomeOf(256); got != 1 {
		t.Errorf("page home after second toucher = %d, want 1", got)
	}
}

func TestAccessRangeCostShape(t *testing.T) {
	h, alloc := newTestHierarchy()
	r := alloc.Alloc("seq", 1<<20, memory.BindTo{Socket: 0})
	// Sequential scan by local core: mostly streaming local DRAM.
	seqCost := h.AccessRange(tnext(), 0, r, 0, 1<<16, false)
	// Same bytes scanned by a two-hop remote core on fresh lines.
	h2, alloc2 := newTestHierarchy()
	r2 := alloc2.Alloc("seq", 1<<20, memory.BindTo{Socket: 0})
	remoteCost := h2.AccessRange(tnext(), 24, r2, 0, 1<<16, false)
	if remoteCost <= seqCost {
		t.Errorf("remote scan cost %d, want > local scan cost %d", remoteCost, seqCost)
	}
}

func TestAccessStridedBeatsByStreamLoss(t *testing.T) {
	// A strided walk over the same number of lines must cost more than a
	// sequential walk (no prefetch discount).
	h, alloc := newTestHierarchy()
	r := alloc.Alloc("m", 1<<22, memory.BindTo{Socket: 0})
	seq := h.AccessRange(tnext(), 0, r, 0, 256*memory.LineSize, false)
	h2, alloc2 := newTestHierarchy()
	r2 := alloc2.Alloc("m", 1<<22, memory.BindTo{Socket: 0})
	strided := h2.AccessStrided(tnext(), 0, r2, 0, memory.PageSize, 8, 256, false)
	if strided <= seq {
		t.Errorf("strided cost %d, want > sequential cost %d", strided, seq)
	}
}

func TestStatsAccounting(t *testing.T) {
	h, _ := newTestHierarchy()
	h.Access(tnext(), 0, 1, 0, false, false)
	h.Access(tnext(), 0, 1, 0, false, false)
	h.Access(tnext(), 8, 1, 0, false, false)
	st := h.StatsOf(0)
	if st.Count[KindLocalDRAM] != 1 || st.Count[KindPrivateHit] != 1 {
		t.Errorf("core 0 stats = %+v, want 1 dram + 1 hit", st.Count)
	}
	total := h.TotalStats()
	if total.Total() != 3 {
		t.Errorf("total accesses = %d, want 3", total.Total())
	}
	if total.Remote() != 1 {
		t.Errorf("remote accesses = %d, want 1", total.Remote())
	}
	if total.TotalCycles() <= 0 {
		t.Error("total cycles not positive")
	}
}

func TestDirectoryBounded(t *testing.T) {
	h, _ := newTestHierarchy()
	// Touch far more lines than the caches hold; directory must stay
	// bounded by total capacity.
	for i := int64(0); i < 200000; i++ {
		h.Access(tnext(), int(i)%32, i, int(i)%4, i%3 == 0, false)
	}
	capacityLines := (32*DefaultGeometry().PrivateBytes + 4*DefaultGeometry().LLCBytes) / memory.LineSize
	if h.DirectorySize() > capacityLines {
		t.Errorf("directory has %d lines, want <= capacity %d", h.DirectorySize(), capacityLines)
	}
	// Entries dropped on eviction are reused, so the slabs hand out no
	// more entries than the caches hold lines, however long the stream.
	handed := h.slabOff
	for _, s := range h.slabs[:h.slabI] {
		handed += len(s)
	}
	if handed > capacityLines {
		t.Errorf("directory slabs handed out %d entries, want <= capacity %d", handed, capacityLines)
	}
}

// Property: access cost is always positive and bounded by the worst case
// (two-hop DRAM + invalidation), and kinds are consistent with cost order.
func TestAccessCostBoundsProperty(t *testing.T) {
	h, _ := newTestHierarchy()
	lat := h.Latency()
	worst := lat.DRAMBase + int64(4)*lat.PerHop + lat.WriteInvalidate
	f := func(rawLine uint16, rawCore, rawHome uint8, write bool) bool {
		core := int(rawCore) % 32
		home := int(rawHome) % 4
		cost, kind := h.Access(tnext(), core, int64(rawLine), home, write, false)
		if cost <= 0 || cost > worst {
			return false
		}
		return kind >= KindPrivateHit && kind <= KindRemoteDRAM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: repeating the same access immediately is always a private hit.
func TestRepeatIsHitProperty(t *testing.T) {
	h, _ := newTestHierarchy()
	f := func(rawLine uint16, rawCore uint8) bool {
		core := int(rawCore) % 32
		h.Access(tnext(), core, int64(rawLine), 0, false, false)
		_, kind := h.Access(tnext(), core, int64(rawLine), 0, false, false)
		return kind == KindPrivateHit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindPrivateHit:  "private-hit",
		KindLocalLLC:    "local-llc",
		KindRemoteCache: "remote-cache",
		KindLocalDRAM:   "local-dram",
		KindRemoteDRAM:  "remote-dram",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// perLineRange is the reference for AccessRange: the same walk, but with
// the page home resolved by TouchFrom and the socket by the public Access
// on every line.
func perLineRange(h *Hierarchy, now int64, core int, r *memory.Region, off, n int64, write bool) int64 {
	if n <= 0 {
		return 0
	}
	var total int64
	first, last := r.GlobalLine(off), r.GlobalLine(off+n-1)
	for line := first; line <= last; line++ {
		home := r.TouchFrom(max(line*memory.LineSize-r.Base(), 0), h.top.SocketOf(core))
		streaming := line != first && line%(memory.PageSize/memory.LineSize) != 0
		c, _ := h.Access(now+total, core, line, home, write, streaming)
		total += c
	}
	return total
}

// TestAccessRangeMatchesPerLine pins the per-call resolution in
// AccessRange and AccessStrided — socket once per call, page home once per
// page — against a per-line Access loop that touches every line's page:
// random ranges and strided walks that cross pages, over first-touch,
// interleaved and block-bound regions, on three machines, with and without
// congestion, must charge the same cycles call for call and leave the same
// stats, congestion cycles, directory and page homes.
func TestAccessRangeMatchesPerLine(t *testing.T) {
	congested := DefaultLatency()
	congested.DRAMOccupancy = 4096
	small, err := topology.Parse("2x4")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		spec string
		top  *topology.Topology
	}{
		{"paper-4x8", topology.XeonE5_4620()},
		{"2x4", small},
		{"ring-96x2", topology.Ring(96, 2)},
	} {
		spec, top := m.spec, m.top
		for _, lat := range []Latency{DefaultLatency(), congested} {
			got, want := NewHierarchy(top, DefaultGeometry(), lat), NewHierarchy(top, DefaultGeometry(), lat)
			var regions [2][]*memory.Region
			for i := range regions {
				a := memory.NewAllocator(top.Sockets())
				regions[i] = []*memory.Region{
					a.Alloc("ft", 64*memory.PageSize, memory.FirstTouch{}),
					a.Alloc("il", 64*memory.PageSize+100, memory.Interleave{}),
					a.Alloc("bb", 64*memory.PageSize, memory.Partition(top.Sockets())),
				}
			}
			var now int64
			rnd := uint64(len(spec))
			for call := 0; call < 3000; call++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				ri := int(rnd>>62) % 3
				gr, wr := regions[0][ri], regions[1][ri]
				core := int(rnd>>33) % top.Cores()
				off := int64(rnd>>20) % gr.Size()
				write := rnd&1 == 0
				var g, w int64
				if rnd&6 == 0 {
					elem := int64(rnd>>8)%128 + 1
					stride := int64(rnd>>12)%(2*memory.PageSize) + elem
					count := int(rnd>>50)%8 + 1
					count = min(count, int((gr.Size()-off-elem)/stride)+1)
					if off+elem > gr.Size() {
						continue
					}
					g = got.AccessStrided(now, core, gr, off, stride, elem, count, write)
					for i := 0; i < count; i++ {
						w += perLineRange(want, now+w, core, wr, off+int64(i)*stride, elem, write)
					}
				} else {
					n := min(int64(rnd>>40)%(3*memory.PageSize), gr.Size()-off)
					g = got.AccessRange(now, core, gr, off, n, write)
					w = perLineRange(want, now, core, wr, off, n, write)
				}
				if g != w {
					t.Fatalf("%s call %d: charged %d, per-line reference %d", spec, call, g, w)
				}
				now += g + int64(rnd>>56)
			}
			for c := 0; c < top.Cores(); c++ {
				if *got.StatsOf(c) != *want.StatsOf(c) {
					t.Fatalf("%s: core %d stats %+v, per-line reference %+v", spec, c, *got.StatsOf(c), *want.StatsOf(c))
				}
			}
			if got.QueueCycles != want.QueueCycles || got.DirectorySize() != want.DirectorySize() {
				t.Fatalf("%s: queue cycles %d, directory %d; per-line reference %d, %d", spec,
					got.QueueCycles, got.DirectorySize(), want.QueueCycles, want.DirectorySize())
			}
			for ri := range regions[0] {
				gr, wr := regions[0][ri], regions[1][ri]
				for pg := 0; pg < gr.Pages(); pg++ {
					if g, w := gr.HomeOf(int64(pg)*memory.PageSize), wr.HomeOf(int64(pg)*memory.PageSize); g != w {
						t.Fatalf("%s region %s page %d: home %d, per-line reference %d", spec, gr.Name(), pg, g, w)
					}
				}
			}
		}
	}
}
