package cache

import (
	"testing"

	"repro/internal/topology"
)

// driveMixed runs a deterministic pseudo-random access mix over the
// hierarchy — all cores, reads and writes, streaming and not, with arrival
// times sometimes close enough to trigger bandwidth queuing — and returns
// every observable: each access's (cost, kind), the accumulated congestion
// cycles, and a per-core stats sample. Lines are drawn from [0, lines), the
// run's footprint.
func driveMixed(h *Hierarchy, salt uint64, lines int64) []int64 {
	var out []int64
	var now int64
	rnd := salt*2862933555777941757 + 3037000493
	for i := 0; i < 4000; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		core := int(rnd>>33) % 32
		line := int64(rnd>>17) % lines
		home := int(rnd>>51) % 4
		now += int64(rnd>>40) % 256
		cost, kind := h.Access(now, core, line, home, rnd&1 == 0, rnd&2 == 0)
		out = append(out, cost, int64(kind))
	}
	out = append(out, h.QueueCycles)
	for c := 0; c < 32; c++ {
		s := h.StatsOf(c)
		out = append(out, s.Remote())
	}
	return out
}

// TestResetEqualsFresh pins the hierarchy-reuse contract the harness's
// arena pooling depends on: a hierarchy that has absorbed an arbitrary
// access history and is then Reset must charge exactly what a
// freshly constructed hierarchy charges, access for access. The histories
// shrink and regrow the footprint, so the dense directory's partial clear
// (only the lines touched since the last Reset) must forget a large run
// and then a small one, and DirectorySize must read 0 after every Reset.
func TestResetEqualsFresh(t *testing.T) {
	used, _ := newTestHierarchy()
	driveMixed(used, 13, 1<<18) // a different history to forget
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
		fresh, _ := newTestHierarchy()
		want := driveMixed(fresh, run.salt, run.lines)
		got := driveMixed(used, run.salt, run.lines)
		if len(got) != len(want) {
			t.Fatalf("observation lengths differ: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d-line run: observation %d differs after Reset: fresh %d, reset %d",
					run.lines, i, want[i], got[i])
			}
		}
		if used.DirectorySize() != fresh.DirectorySize() {
			t.Fatalf("%d-line run: DirectorySize() = %d after Reset, fresh %d",
				run.lines, used.DirectorySize(), fresh.DirectorySize())
		}
	}
}

// TestMatches pins the reuse guard: same shape matches, anything else
// (different machine, geometry, or latency table) must force a rebuild.
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
