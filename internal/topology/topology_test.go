package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestXeonE5_4620(t *testing.T) {
	top := XeonE5_4620()
	if got, want := top.Sockets(), 4; got != want {
		t.Errorf("Sockets() = %d, want %d", got, want)
	}
	if got, want := top.CoresPerSocket(), 8; got != want {
		t.Errorf("CoresPerSocket() = %d, want %d", got, want)
	}
	if got, want := top.Cores(), 32; got != want {
		t.Errorf("Cores() = %d, want %d", got, want)
	}
	if got, want := top.MaxDistance(), 2; got != want {
		t.Errorf("MaxDistance() = %d, want %d", got, want)
	}
	// Fig. 1: sockets 0 and 3 are two hops apart, 0 and 1 one hop.
	if got := top.Distance(0, 3); got != 2 {
		t.Errorf("Distance(0,3) = %d, want 2", got)
	}
	if got := top.Distance(0, 1); got != 1 {
		t.Errorf("Distance(0,1) = %d, want 1", got)
	}
	if got := top.Distance(2, 2); got != 0 {
		t.Errorf("Distance(2,2) = %d, want 0", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		sockets int
		cores   int
		dist    [][]int
	}{
		{"zero sockets", 0, 8, nil},
		{"zero cores", 2, 0, [][]int{{0, 1}, {1, 0}}},
		{"wrong rows", 2, 4, [][]int{{0, 1}}},
		{"wrong cols", 2, 4, [][]int{{0, 1}, {1}}},
		{"nonzero diagonal", 2, 4, [][]int{{1, 1}, {1, 0}}},
		{"asymmetric", 2, 4, [][]int{{0, 1}, {2, 0}}},
		{"nonpositive off-diagonal", 2, 4, [][]int{{0, 0}, {0, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.sockets, tc.cores, tc.dist); err == nil {
				t.Errorf("New(%d, %d, %v) succeeded, want error", tc.sockets, tc.cores, tc.dist)
			}
		})
	}
}

func TestNewCopiesDistance(t *testing.T) {
	dist := [][]int{{0, 1}, {1, 0}}
	top := MustNew(2, 2, dist)
	dist[0][1] = 99
	if got := top.Distance(0, 1); got != 1 {
		t.Errorf("Distance(0,1) = %d after caller mutation, want 1 (matrix must be copied)", got)
	}
}

func TestSocketOf(t *testing.T) {
	top := XeonE5_4620()
	cases := []struct{ core, socket int }{
		{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {23, 2}, {24, 3}, {31, 3},
	}
	for _, tc := range cases {
		if got := top.SocketOf(tc.core); got != tc.socket {
			t.Errorf("SocketOf(%d) = %d, want %d", tc.core, got, tc.socket)
		}
	}
}

func TestSocketOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SocketOf(32) did not panic")
		}
	}()
	XeonE5_4620().SocketOf(32)
}

func TestPackTight(t *testing.T) {
	top := XeonE5_4620()
	// Fig. 9: "for 24 cores, 3 sockets are used."
	for _, tc := range []struct{ p, used int }{{24, 3}, {8, 1}, {9, 2}, {1, 1}, {32, 4}} {
		if got := top.SocketsUsed(tc.p); got != tc.used {
			t.Errorf("SocketsUsed(%d) = %d, want %d", tc.p, got, tc.used)
		}
	}
}

func TestPackPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SocketsUsed(33) did not panic")
		}
	}()
	XeonE5_4620().SocketsUsed(33)
}

// Property: for any worker count, packed workers occupy exactly the
// sockets up to the last worker's, ceil(p/coresPerSocket) of them.
func TestPackProperties(t *testing.T) {
	top := XeonE5_4620()
	f := func(raw uint8) bool {
		p := int(raw)%top.Cores() + 1
		want := (p + top.CoresPerSocket() - 1) / top.CoresPerSocket()
		return top.SocketsUsed(p) == want && top.SocketOf(p-1) == want-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := XeonE5_4620().String()
	for _, want := range []string{"4 sockets x 8 cores", "Socket 0", "Socket 3", "cores 24-31", "node distances"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}
