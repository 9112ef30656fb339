package topology

import (
	"strings"
	"testing"
)

// everyPreset builds each registered preset once.
func everyPreset(t *testing.T) map[string]*Topology {
	t.Helper()
	out := map[string]*Topology{}
	for _, name := range Presets() {
		top, ok := Preset(name)
		if !ok {
			t.Fatalf("Presets() lists %q but Preset(%q) does not resolve", name, name)
		}
		out[name] = top
	}
	return out
}

// TestPresetDistanceInvariants checks every preset's hop-distance matrix for
// the properties a metric must have: zero diagonal, symmetry, positive
// off-diagonal entries, and the triangle inequality (no pair of sockets is
// farther apart than any relay route between them).
func TestPresetDistanceInvariants(t *testing.T) {
	for name, top := range everyPreset(t) {
		n := top.Sockets()
		for i := 0; i < n; i++ {
			if d := top.Distance(i, i); d != 0 {
				t.Errorf("%s: distance(%d,%d) = %d, want 0", name, i, i, d)
			}
			for j := 0; j < n; j++ {
				if top.Distance(i, j) != top.Distance(j, i) {
					t.Errorf("%s: asymmetric at (%d,%d)", name, i, j)
				}
				if i != j && top.Distance(i, j) <= 0 {
					t.Errorf("%s: non-positive off-diagonal at (%d,%d)", name, i, j)
				}
				for k := 0; k < n; k++ {
					if direct, relay := top.Distance(i, j), top.Distance(i, k)+top.Distance(k, j); direct > relay {
						t.Errorf("%s: triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
							name, i, j, direct, i, k, k, j, relay)
					}
				}
			}
		}
	}
}

// TestPresetInventory pins the preset registry: the five documented names,
// in order, all 32 cores so sweeps compare shape rather than size, and
// paper-4x8 is exactly the paper's machine.
func TestPresetInventory(t *testing.T) {
	want := []string{"paper-4x8", "2x16", "8x4", "snc-2x2x8", "uniform"}
	got := Presets()
	if len(got) != len(want) {
		t.Fatalf("Presets() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Presets() = %v, want %v", got, want)
		}
	}
	tops := everyPreset(t)
	for name, top := range tops {
		if top.Cores() != 32 {
			t.Errorf("%s has %d cores, want 32", name, top.Cores())
		}
	}
	paper, ref := tops["paper-4x8"], XeonE5_4620()
	if paper.Sockets() != ref.Sockets() || paper.CoresPerSocket() != ref.CoresPerSocket() {
		t.Fatal("paper-4x8 shape differs from XeonE5_4620")
	}
	for i := 0; i < ref.Sockets(); i++ {
		for j := 0; j < ref.Sockets(); j++ {
			if paper.Distance(i, j) != ref.Distance(i, j) {
				t.Errorf("paper-4x8 distance(%d,%d) = %d, want %d",
					i, j, paper.Distance(i, j), ref.Distance(i, j))
			}
		}
	}
}

func TestRing(t *testing.T) {
	r := Ring(8, 4)
	if r.Sockets() != 8 || r.CoresPerSocket() != 4 {
		t.Fatalf("Ring(8,4) shape = %dx%d", r.Sockets(), r.CoresPerSocket())
	}
	if d := r.Distance(0, 4); d != 4 {
		t.Errorf("opposite sockets on an 8-ring: distance %d, want 4", d)
	}
	if d := r.Distance(0, 7); d != 1 {
		t.Errorf("ring wrap-around: distance %d, want 1", d)
	}
	if got := r.MaxDistance(); got != 4 {
		t.Errorf("MaxDistance = %d, want 4", got)
	}
	// A 2-ring is fully connected.
	if d := Ring(2, 16).Distance(0, 1); d != 1 {
		t.Errorf("Ring(2) distance = %d, want 1", d)
	}
}

func TestClustered(t *testing.T) {
	c := Clustered(2, 2, 8)
	if c.Sockets() != 4 || c.CoresPerSocket() != 8 {
		t.Fatalf("Clustered(2,2,8) shape = %dx%d", c.Sockets(), c.CoresPerSocket())
	}
	// Nodes 0,1 share a package; 2,3 share the other.
	if d := c.Distance(0, 1); d != 1 {
		t.Errorf("intra-package distance = %d, want 1", d)
	}
	if d := c.Distance(1, 2); d != 2 {
		t.Errorf("cross-package distance = %d, want 2", d)
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec           string
		sockets, cores int
	}{
		{"paper-4x8", 4, 8},
		{"uniform", 1, 32},
		{"snc-2x2x8", 4, 8},
		{"2x4", 2, 4},   // generic shape, not a preset
		{"16x2", 16, 2}, // generic shape
		{"2x16", 2, 16}, // preset that is also a valid generic shape
	} {
		top, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if top.Sockets() != tc.sockets || top.CoresPerSocket() != tc.cores {
			t.Errorf("Parse(%q) = %dx%d, want %dx%d",
				tc.spec, top.Sockets(), top.CoresPerSocket(), tc.sockets, tc.cores)
		}
	}
	for _, bad := range []string{"", "nope", "4x", "x8", "0x4", "4x0", "-2x4", "4x8x2", "4x8 "} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		} else if !strings.Contains(err.Error(), "paper-4x8") && !strings.Contains(err.Error(), "positive") {
			t.Errorf("Parse(%q) error %q does not name the accepted forms", bad, err)
		}
	}
	if _, err := Parse("100000x1"); err == nil || !strings.Contains(err.Error(), "more than 64 sockets") {
		t.Errorf("Parse(100000x1): error %v, want the socket bound", err)
	}
	if _, err := Parse("64x1"); err != nil {
		t.Errorf("Parse(64x1): %v", err)
	}
	for _, bad := range []string{"1x100000000", "1x1025", "64x17", "2x9223372036854775807"} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "more than 1024 cores") {
			t.Errorf("Parse(%s): error %v, want the core bound", bad, err)
		}
	}
	for _, ok := range []string{"1x1024", "64x16", "8x128"} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%s): %v", ok, err)
		}
	}
}

// TestKeyPinsSignatures pins Key to the signatures existing store and
// journal files carry: a change to the hash, to its input rendering or to
// any preset's construction would orphan every record written before it.
func TestKeyPinsSignatures(t *testing.T) {
	for spec, want := range map[string]string{
		"paper-4x8": "4x8-10fdc5270e116cad",
		"2x16":      "2x16-9e36c827e6d6cbaf",
		"8x4":       "8x4-211413ddc7a514fe",
		"snc-2x2x8": "4x8-a79dbe98b1163fb5",
		"uniform":   "1x32-9004f0a0363179cf",
		"2x4":       "2x4-e0720c0ae15bfc75",
		"3x5":       "3x5-3a71103d666724a8",
	} {
		top, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := top.Key(); got != want {
			t.Errorf("Parse(%q).Key() = %s, want %s", spec, got, want)
		}
	}
}
