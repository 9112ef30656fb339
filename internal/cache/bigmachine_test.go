package cache

import (
	"testing"

	"repro/internal/topology"
)

// TestBigMachineDirectory exercises the coherence directory past the old
// 64-core/32-socket mask limits: a 96-socket ring with 2 cores per socket
// (192 cores) must build, service accesses with the right kinds, track
// holders across word boundaries, and drain the directory on invalidation.
func TestBigMachineDirectory(t *testing.T) {
	top := topology.Ring(96, 2)
	h := NewHierarchy(top, DefaultGeometry(), DefaultLatency())
	lat := h.Latency()

	const line = 7
	// Core 0 (socket 0) pulls the line from its local DRAM.
	if _, kind := h.Access(tnext(), 0, line, 0, false, false); kind != KindLocalDRAM {
		t.Fatalf("first access kind = %v, want local-dram", kind)
	}
	// Core 190 (socket 95, bit 95 of the socket mask and bit 190 of the
	// core mask — both past the first word) finds the remote copy.
	cost, kind := h.Access(tnext(), 190, line, 0, false, false)
	if kind != KindRemoteCache {
		t.Fatalf("cross-machine access kind = %v, want remote-cache", kind)
	}
	d := int64(top.Distance(95, 0))
	if want := lat.RemoteCache + d*lat.PerHop; cost != want {
		t.Errorf("remote transfer cost = %d, want %d (%d hops)", cost, want, d)
	}
	// Both sockets now hold it; a hit on core 191 (same socket as 190) is
	// an LLC hit.
	if _, kind := h.Access(tnext(), 191, line, 0, false, false); kind != KindLocalLLC {
		t.Errorf("same-socket access kind = %v, want local-llc", kind)
	}
	// A write from core 1 invalidates every other copy, paying the
	// invalidation premium, and leaves core 1 the only holder.
	cost, _ = h.Access(tnext(), 1, line, 0, true, false)
	if cost < lat.WriteInvalidate {
		t.Errorf("write cost %d did not include the invalidate premium %d", cost, lat.WriteInvalidate)
	}
	if _, kind := h.Access(tnext(), 190, line, 0, false, false); kind != KindRemoteCache {
		t.Errorf("post-invalidate access kind = %v, want remote-cache from core 1's socket", kind)
	}
	// Flushing every core drains the private masks; evicting nothing leaks.
	for c := 0; c < top.Cores(); c++ {
		h.FlushCore(c)
	}
	if st := h.TotalStats(); st.Total() == 0 {
		t.Error("no accesses recorded")
	}
}

// TestBitset covers the word-boundary arithmetic directly.
func TestBitset(t *testing.T) {
	b := make(bitset, 3) // 192 bits
	for _, i := range []int{0, 63, 64, 100, 191} {
		if b.get(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set after set", i)
		}
	}
	if !b.any() {
		t.Error("any() false with bits set")
	}
	b.onlyKeep(100)
	for i := 0; i < 192; i++ {
		if b.get(i) != (i == 100) {
			t.Errorf("after onlyKeep(100): bit %d = %v", i, b.get(i))
		}
	}
	b.clear(100)
	if b.any() {
		t.Error("any() true after clearing the last bit")
	}
}
