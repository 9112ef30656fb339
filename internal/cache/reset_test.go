package cache

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/topology"
)

// driveMixed runs a deterministic pseudo-random access mix over the
// hierarchy — every core of the machine, reads and writes, streaming and
// not, homes on every socket, arrivals a few hundred cycles apart (close
// enough to queue at a controller whose occupancy is raised) — and returns
// every observable: each access's
// (cost, kind), the accumulated congestion cycles, each core's per-kind
// counts and cycles, and the directory size. Lines are drawn from
// [0, lines), the run's footprint; n is the number of accesses.
func driveMixed(h *Hierarchy, salt uint64, lines int64, n int) []int64 {
	cores, sockets := h.top.Cores(), h.top.Sockets()
	var out []int64
	var now int64
	rnd := salt*2862933555777941757 + 3037000493
	for i := 0; i < n; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		core := int(rnd>>33) % cores
		line := int64(rnd>>17) % lines
		home := int(rnd>>51) % sockets
		now += int64(rnd>>40) % 256
		cost, kind := h.Access(now, core, line, home, rnd&1 == 0, rnd&2 == 0)
		out = append(out, cost, int64(kind))
	}
	out = append(out, h.QueueCycles, int64(h.DirectorySize()))
	for c := 0; c < cores; c++ {
		s := h.StatsOf(c)
		out = append(out, s.Count[:]...)
		out = append(out, s.Cycles[:]...)
	}
	return out
}

// traceHash folds driveMixed's observables into one FNV-64a value.
func traceHash(obs []int64) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	for _, v := range obs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		f.Write(buf[:])
	}
	return f.Sum64()
}

// tinyGeometry has set counts that are not powers of two (12 private, 48
// LLC), and an LLC smaller than its socket's private caches, so lines live
// on in private caches after their LLC dropped them, and short traces
// evict and drop directory entries all the time.
var tinyGeometry = Geometry{PrivateBytes: 3 << 10, PrivateWays: 4, LLCBytes: 12 << 10, LLCWays: 4}

// TestAccessTraceMatchesParent pins the cache model's charges to numbers
// recorded from the tick-LRU implementation the recency-ordered sets
// replaced: every (cost, kind), the congestion cycles, per-core stats and
// the directory size over long mixed traces on the paper's machine and on
// a 192-core ring whose directory bitsets span several words. The small
// footprints force private and LLC evictions, remote transfers and
// invalidations; the tiny geometry takes the modulo set index and keeps
// lines in private caches their LLC no longer holds; the large footprints
// are mostly cold misses under congestion.
// TestResetEqualsFresh compares the implementation with itself; this test
// compares it with the model it must reproduce exactly.
func TestAccessTraceMatchesParent(t *testing.T) {
	congested := DefaultLatency()
	congested.DRAMOccupancy = 4096 // 32 fills per epoch per controller
	ringCongested := DefaultLatency()
	ringCongested.DRAMOccupancy = 32768 // 4 fills per epoch per controller
	for _, tc := range []struct {
		name  string
		top   *topology.Topology
		geo   Geometry
		lat   Latency
		salt  uint64
		lines int64
		n     int
		want  uint64
	}{
		{"paper-4x8/cold", topology.XeonE5_4620(), DefaultGeometry(), DefaultLatency(), 7, 1 << 18, 4000, 0x8e444c5d6439c93b},
		{"paper-4x8/reuse", topology.XeonE5_4620(), DefaultGeometry(), DefaultLatency(), 3, 1 << 11, 60000, 0x76970c6cfdbdb375},
		{"paper-4x8/evict", topology.XeonE5_4620(), DefaultGeometry(), congested, 5, 1 << 16, 60000, 0x8b72753486605acf},
		{"ring-96x2/reuse", topology.Ring(96, 2), DefaultGeometry(), DefaultLatency(), 11, 1 << 12, 60000, 0x1ec743a227379ee6},
		{"paper-4x8/tiny", topology.XeonE5_4620(), tinyGeometry, DefaultLatency(), 17, 1 << 10, 60000, 0x177b0a44242f647c},
		{"ring-96x2/tiny", topology.Ring(96, 2), tinyGeometry, DefaultLatency(), 19, 1 << 9, 60000, 0x3f97ac39f1aa4b7b},
		{"ring-96x2/cold", topology.Ring(96, 2), DefaultGeometry(), ringCongested, 13, 1 << 18, 20000, 0x9fdab95645d0e32a},
	} {
		h := NewHierarchy(tc.top, tc.geo, tc.lat)
		obs := driveMixed(h, tc.salt, tc.lines, tc.n)
		if got := traceHash(obs); got != tc.want {
			t.Errorf("%s: trace hash = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestResetEqualsFresh pins the hierarchy-reuse contract the harness's
// arena pooling depends on: a hierarchy that has absorbed an arbitrary
// access history and is then Reset must charge exactly what a
// freshly constructed hierarchy charges, access for access. The histories
// shrink and regrow the footprint, so the dense directory's partial clear
// (only the lines touched since the last Reset) must forget a large run
// and then a small one, and DirectorySize must read 0 after every Reset
// (driveMixed's observations include it). Under a raised DRAM occupancy
// the histories also congest the controllers, so Reset must forget the
// congestion ring as well. Under the tiny geometry the histories evict
// constantly, so Reset must also forget the dropped directory entries
// waiting for reuse.
func TestResetEqualsFresh(t *testing.T) {
	congested := DefaultLatency()
	congested.DRAMOccupancy = 4096 // so the congestion ring must be forgotten too
	for _, tc := range []struct {
		geo Geometry
		lat Latency
	}{
		{DefaultGeometry(), DefaultLatency()},
		{DefaultGeometry(), congested},
		{tinyGeometry, DefaultLatency()},
	} {
		geo, lat := tc.geo, tc.lat
		used := NewHierarchy(topology.XeonE5_4620(), geo, lat)
		driveMixed(used, 13, 1<<18, 4000) // a different history to forget
		for _, run := range []struct {
			salt  uint64
			lines int64
		}{
			{7, 1 << 18},
			{21, 1 << 22}, // the directory grows well past the first run's lines
			{7, 1 << 10},  // a small run after a large one
			{7, 1 << 18},
		} {
			used.Reset()
			if n := used.DirectorySize(); n != 0 {
				t.Fatalf("DirectorySize() = %d after Reset, want 0", n)
			}
			fresh := NewHierarchy(topology.XeonE5_4620(), geo, lat)
			want := driveMixed(fresh, run.salt, run.lines, 4000)
			got := driveMixed(used, run.salt, run.lines, 4000)
			if len(got) != len(want) {
				t.Fatalf("observation lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d-line run: observation %d differs after Reset: fresh %d, reset %d",
						run.lines, i, want[i], got[i])
				}
			}
		}
	}
}

// TestMatches pins the reuse guard: the same machine matches, anything else
// (different shape or distances, geometry, or latency table) must force a
// rebuild.
func TestMatches(t *testing.T) {
	top := topology.XeonE5_4620()
	h := NewHierarchy(top, DefaultGeometry(), DefaultLatency())
	if !h.Matches(topology.XeonE5_4620(), DefaultGeometry(), DefaultLatency()) {
		t.Error("identical machine description must match (fresh preset pointer)")
	}
	other, err := topology.Parse("2x16")
	if err != nil {
		t.Fatal(err)
	}
	if h.Matches(other, DefaultGeometry(), DefaultLatency()) {
		t.Error("different topology must not match")
	}
	far := [][]int{{0, 3, 3, 3}, {3, 0, 3, 3}, {3, 3, 0, 3}, {3, 3, 3, 0}}
	if h.Matches(topology.MustNew(4, 8, far), DefaultGeometry(), DefaultLatency()) {
		t.Error("same shape with other socket distances must not match")
	}
	geo := DefaultGeometry()
	geo.PrivateBytes *= 2
	if h.Matches(topology.XeonE5_4620(), geo, DefaultLatency()) {
		t.Error("different geometry must not match")
	}
	lat := DefaultLatency()
	lat.DRAMBase++
	if h.Matches(topology.XeonE5_4620(), DefaultGeometry(), lat) {
		t.Error("different latency table must not match")
	}
}
