package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// fakePolicy is a registrable test double.
type fakePolicy struct{ name string }

func (p fakePolicy) Name() string { return p.name }
func (fakePolicy) Biased() bool   { return false }
func (fakePolicy) Pushes() bool   { return false }
func (fakePolicy) Victim(rng *sim.RNG, _ *sim.Picker, view *View, at Steal) int {
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// testView builds the machine view an engine would hand to Victim for
// workers packed onto top.
func testView(top *topology.Topology, workers int) *View {
	onSocket := make([][]int, top.Sockets())
	for w := 0; w < workers; w++ {
		s := top.SocketOf(w)
		onSocket[s] = append(onSocket[s], w)
	}
	return &View{top: top, workers: workers, onSocket: onSocket}
}

func TestRegistryBuiltins(t *testing.T) {
	for name, want := range map[string]Policy{"cilk": Cilk, "numaws": NUMAWS} {
		got, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("Lookup(%q) = %v, want the builtin instance", name, got)
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	builtin := []string{"adaptive-bias", "cilk", "numaws", "socket-first", "steal-half"}
	if !reflect.DeepEqual(names, builtin) {
		t.Fatalf("Names() = %v, want %v", names, builtin)
	}
	// Stable across calls.
	if again := Names(); !reflect.DeepEqual(names, again) {
		t.Errorf("Names() unstable: %v then %v", names, again)
	}
	// A later registration keeps the listing sorted.
	Register(fakePolicy{name: "aaa-test"})
	defer unregister("aaa-test")
	if got := Names(); !reflect.DeepEqual(got, append([]string{"aaa-test"}, builtin...)) {
		t.Errorf("Names() after Register = %v, want sorted with aaa-test first", got)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakePolicy{name: "dup-test"})
	defer unregister("dup-test")
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(fakePolicy{name: "dup-test"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register with an empty name did not panic")
		}
	}()
	Register(fakePolicy{name: ""})
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("Lookup of an unknown policy succeeded")
	}
	for _, want := range []string{`"nope"`, "cilk", "numaws"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Lookup error %q does not mention %s", err, want)
		}
	}
}

// TestInterfacePoliciesMatchEnumSemantics pins that the interface hooks
// encode exactly the decisions the old two-value enum dispatched on: cilk is
// uniform/no-push, numaws is biased/pushing, and numaws degrades to the
// uniform draw when its picker was ablated away.
func TestInterfacePoliciesMatchEnumSemantics(t *testing.T) {
	if Cilk.Biased() || Cilk.Pushes() {
		t.Error("cilk must be unbiased and non-pushing")
	}
	if !NUMAWS.Biased() || !NUMAWS.Pushes() {
		t.Error("numaws must be biased and pushing")
	}
	// Victim draws consume the RNG exactly like the pre-interface code:
	// one uniform draw for cilk (and for bias-ablated numaws), one picker
	// draw otherwise.
	a, b, c := sim.NewRNG(7), sim.NewRNG(7), sim.NewRNG(7)
	picker := sim.NewPicker([]float64{0, 1, 2, 4})
	v8 := testView(topology.TwoSocket(4), 8)
	for i := 0; i < 1000; i++ {
		want := a.PickUniformExcept(8, 3)
		if got := Cilk.Victim(b, picker, v8, Steal{Self: 3}); got != want {
			t.Fatalf("draw %d: Cilk.Victim = %d, want uniform %d", i, got, want)
		}
		if got := NUMAWS.Victim(c, nil, v8, Steal{Self: 3}); got != want {
			t.Fatalf("draw %d: unbiased NUMAWS.Victim = %d, want uniform %d", i, got, want)
		}
	}
	d, e := sim.NewRNG(9), sim.NewRNG(9)
	v4 := testView(topology.TwoSocket(2), 4)
	for i := 0; i < 1000; i++ {
		want := picker.Pick(d)
		if got := NUMAWS.Victim(e, picker, v4, Steal{Self: 0}); got != want {
			t.Fatalf("draw %d: biased NUMAWS.Victim = %d, want picker %d", i, got, want)
		}
	}
}

// TestEnginePolicyDispatch pins that engines built from the registered
// policies behave exactly as the enum-driven engines did: identical stats
// under each policy, mailbox machinery live only under numaws.
func TestEnginePolicyDispatch(t *testing.T) {
	mk := func() *treeRunner {
		return &treeRunner{fanout: 4, depth: 5, leafCost: 800, innerCost: 10,
			placeOf: func(i int) int { return i % 4 }}
	}
	cilk := runTree(t, testConfig(16, Cilk), mk())
	if cilk.Pushes != 0 || cilk.MailboxSteals != 0 || cilk.MailboxSelf != 0 {
		t.Errorf("cilk run used mailboxes: %+v", cilk)
	}
	nws := runTree(t, testConfig(16, NUMAWS), mk())
	if nws.Pushes == 0 {
		t.Errorf("numaws run never pushed: %+v", nws)
	}
	// A looked-up policy is the same instance, so the run replays
	// identically.
	viaLookup, err := Lookup("numaws")
	if err != nil {
		t.Fatal(err)
	}
	again := runTree(t, testConfig(16, viaLookup), mk())
	if again.Makespan != nws.Makespan || again.Steals != nws.Steals ||
		again.Pushes != nws.Pushes || again.Events != nws.Events {
		t.Errorf("run under Lookup(numaws) diverged:\n%+v\n%+v", again, nws)
	}
}
