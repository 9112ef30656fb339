package cache

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/topology"
)

// congested builds a hierarchy and saturates socket 0's controller during
// one epoch, so accesses in the following epoch pay congestion.
func congested(t *testing.T, lat Latency) *Hierarchy {
	t.Helper()
	h := NewHierarchy(topology.XeonE5_4620(), DefaultGeometry(), lat)
	capacity := epochLen * int64(lat.DRAMChannels) / lat.DRAMOccupancy
	// Overload socket 0 threefold during epoch 0.
	for i := int64(0); i < 3*capacity; i++ {
		h.Access(i%epochLen, int(i)%8, 1_000_000+i, 0, false, false)
	}
	return h
}

func TestCongestionChargesOverloadedSocket(t *testing.T) {
	lat := DefaultLatency()
	h := congested(t, lat)
	// Epoch 1 access to socket 0 DRAM pays the congestion multiplier.
	cost, kind := h.Access(epochLen+1, 0, 1, 0, false, false)
	if kind != KindLocalDRAM {
		t.Fatalf("kind = %v, want local-dram", kind)
	}
	if cost <= lat.DRAMBase {
		t.Errorf("congested access cost %d, want > uncontended %d", cost, lat.DRAMBase)
	}
	if maxCost := lat.DRAMBase * lat.DRAMMaxCongestion; cost > maxCost {
		t.Errorf("congested access cost %d exceeds cap %d", cost, maxCost)
	}
	if h.QueueCycles <= 0 {
		t.Error("QueueCycles not accumulated")
	}
}

func TestCongestionSparesOtherSockets(t *testing.T) {
	lat := DefaultLatency()
	h := congested(t, lat)
	// Socket 1's DRAM is idle: an epoch-1 access pays pure latency.
	cost, _ := h.Access(epochLen+1, 8, 2, 1, false, false)
	if cost != lat.DRAMBase {
		t.Errorf("other-socket access cost %d, want %d", cost, lat.DRAMBase)
	}
}

func TestCongestionDecays(t *testing.T) {
	lat := DefaultLatency()
	h := congested(t, lat)
	// Two epochs later, with an intervening quiet epoch, the charge is gone.
	h.Access(epochLen+1, 0, 3, 0, false, false) // epoch 1: light traffic
	cost, _ := h.Access(2*epochLen+1, 0, 4, 0, false, false)
	if cost != lat.DRAMBase {
		t.Errorf("post-quiet access cost %d, want %d (congestion must decay)", cost, lat.DRAMBase)
	}
}

func TestCongestionDisabled(t *testing.T) {
	lat := DefaultLatency()
	h := congested(t, lat)
	h.lat.DRAMOccupancy = 0 // switch bandwidth modelling off post-overload
	cost, _ := h.Access(epochLen+1, 0, 5, 0, false, false)
	if cost != lat.DRAMBase {
		t.Errorf("cost with bandwidth disabled = %d, want %d", cost, lat.DRAMBase)
	}
	if h.QueueCycles != 0 {
		t.Errorf("QueueCycles = %d, want 0", h.QueueCycles)
	}
}

func TestUnderCapacityIsFree(t *testing.T) {
	lat := DefaultLatency()
	h := NewHierarchy(topology.XeonE5_4620(), DefaultGeometry(), lat)
	capacity := epochLen * int64(lat.DRAMChannels) / lat.DRAMOccupancy
	// Half-capacity demand in epoch 0.
	for i := int64(0); i < capacity/2; i++ {
		h.Access(i%epochLen, int(i)%8, 2_000_000+i, 0, false, false)
	}
	cost, _ := h.Access(epochLen+1, 0, 6, 0, false, false)
	if cost != lat.DRAMBase {
		t.Errorf("under-capacity follow-up cost %d, want %d", cost, lat.DRAMBase)
	}
	if h.QueueCycles != 0 {
		t.Errorf("QueueCycles = %d, want 0 under capacity", h.QueueCycles)
	}
}

func TestRemoteFillCongestsHomeController(t *testing.T) {
	lat := DefaultLatency()
	h := NewHierarchy(topology.XeonE5_4620(), DefaultGeometry(), lat)
	capacity := epochLen * int64(lat.DRAMChannels) / lat.DRAMOccupancy
	// Remote cores (socket 1) overload socket 0's bank.
	for i := int64(0); i < 3*capacity; i++ {
		h.Access(i%epochLen, 8+int(i)%8, 3_000_000+i, 0, false, false)
	}
	// A local socket-0 access then pays: the bank is the contended
	// resource, not the requester.
	cost, _ := h.Access(epochLen+1, 0, 7, 0, false, false)
	if cost <= lat.DRAMBase {
		t.Errorf("local access after remote overload cost %d, want > %d", cost, lat.DRAMBase)
	}
}

func TestHotSocketInflatesConcurrentScans(t *testing.T) {
	// End-to-end shape: 32 cores all streaming from socket 0's DRAM at the
	// same virtual times accumulate congestion; the same scans spread over
	// four home sockets stay (mostly) uncongested.
	run := func(homeOf func(i int) int) int64 {
		top := topology.XeonE5_4620()
		h := NewHierarchy(top, DefaultGeometry(), DefaultLatency())
		alloc := memory.NewAllocator(4)
		regions := make([]*memory.Region, 32)
		for i := range regions {
			regions[i] = alloc.Alloc("r", 1<<20, memory.BindTo{Socket: homeOf(i)})
		}
		for chunk := 0; chunk < 64; chunk++ {
			for core := 0; core < 32; core++ {
				h.AccessRange(int64(chunk)*2000, core, regions[core], int64(chunk)*16384, 16384, false)
			}
		}
		return h.QueueCycles
	}
	hot := run(func(i int) int { return 0 })
	spread := run(func(i int) int { return i % 4 })
	if hot <= spread*2 {
		t.Errorf("hot-socket congestion %d not clearly above spread congestion %d", hot, spread)
	}
}

// TestNewHierarchyRejectsBadParameters pins construction-time validation:
// a cache with no ways, or a DRAM occupancy that rounds a controller's
// per-epoch capacity to zero, panics naming the field instead of dividing
// by zero later (at construction for the ways, on the first overloaded
// epoch for the occupancy). The largest accepted occupancy leaves a
// capacity of one fill per epoch and charges congestion normally.
func TestNewHierarchyRejectsBadParameters(t *testing.T) {
	top := topology.XeonE5_4620()
	geo := func(f func(*Geometry)) Geometry { g := DefaultGeometry(); f(&g); return g }
	lat := func(f func(*Latency)) Latency { l := DefaultLatency(); f(&l); return l }
	for _, tc := range []struct {
		name  string
		geo   Geometry
		lat   Latency
		field string
	}{
		{"zero private ways", geo(func(g *Geometry) { g.PrivateWays = 0 }), DefaultLatency(), "Geometry.PrivateWays"},
		{"negative private ways", geo(func(g *Geometry) { g.PrivateWays = -2 }), DefaultLatency(), "Geometry.PrivateWays"},
		{"zero LLC ways", geo(func(g *Geometry) { g.LLCWays = 0 }), DefaultLatency(), "Geometry.LLCWays"},
		{"occupancy past default channels", DefaultGeometry(),
			lat(func(l *Latency) { l.DRAMChannels = 0; l.DRAMOccupancy = 4*epochLen + 1 }), "Latency.DRAMOccupancy"},
		{"occupancy past two channels", DefaultGeometry(),
			lat(func(l *Latency) { l.DRAMChannels = 2; l.DRAMOccupancy = 2*epochLen + 1 }), "Latency.DRAMOccupancy"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.field) {
					t.Errorf("%s: panic %q, want one naming %s", tc.name, msg, tc.field)
				}
			}()
			NewHierarchy(top, tc.geo, tc.lat)
		}()
	}

	edge := DefaultLatency()
	edge.DRAMOccupancy = epochLen * int64(edge.DRAMChannels)
	h := congested(t, edge)
	if cost, _ := h.Access(epochLen+1, 0, 1, 0, false, false); cost <= edge.DRAMBase {
		t.Errorf("access after an overloaded epoch at capacity 1 cost %d, want congestion above %d", cost, edge.DRAMBase)
	}
}
