package topology

import (
	"fmt"
	"testing"
)

// FuzzTopologyParse feeds arbitrary spec strings to Parse. Each either
// fails with an error or yields a machine within maxShapeSockets sockets
// and maxShapeCores cores whose rendering round-trips: a generic shape's
// canonical "SxC" spelling is the spec itself, and parsing the spec again
// (a preset name or that spelling) renders the identical machine.
func FuzzTopologyParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		top, err := Parse(spec)
		if err != nil {
			return
		}
		if top.Sockets() > maxShapeSockets || top.Cores() > maxShapeCores {
			t.Fatalf("Parse(%q) = %d sockets x %d cores, beyond the caps (%d sockets, %d cores)",
				spec, top.Sockets(), top.CoresPerSocket(), maxShapeSockets, maxShapeCores)
		}
		if _, preset := Preset(spec); !preset {
			if shape := fmt.Sprintf("%dx%d", top.Sockets(), top.CoresPerSocket()); shape != spec {
				t.Fatalf("Parse(%q) built shape %s", spec, shape)
			}
		}
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) failed the second time: %v", spec, err)
		}
		if again.String() != top.String() {
			t.Fatalf("Parse(%q) renders differently on a second parse:\n%s\nvs\n%s", spec, top, again)
		}
	})
}
