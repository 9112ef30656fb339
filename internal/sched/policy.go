package sched

// The scheduling policies under comparison, as pluggable values instead of a
// closed enum. A Policy packages the decision points that distinguish the
// paper's schedulers — how a thief selects its victim, and whether the lazy
// work-pushing machinery (mailboxes, PUSHBACK) is active — plus two optional
// hooks for policies from the wider work-stealing literature: a steal-amount
// hook (one frame vs half the victim's deque) and a per-epoch observation
// hook that lets a policy re-weight its victim distribution mid-run. The
// engine consumes a policy only through these hooks; everything else (deque
// discipline, promotion, sync handling, cost accounting) is shared by
// construction, which is exactly the paper's controlled-comparison
// methodology.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/topology"
)

// View is a policy's read-only window onto the run's machine: the worker
// count, the worker-to-socket map and the socket distance matrix. The
// engine builds one View per run and hands the same pointer to every
// Victim call, so consulting it never allocates. Policies must treat it
// as immutable.
type View struct {
	top      *topology.Topology
	sockets  []int   // worker id -> socket
	onSocket [][]int // socket -> resident worker ids, ascending
}

// Workers reports the run's worker count (always at least 2 when the
// engine calls Victim).
func (v *View) Workers() int { return len(v.sockets) }

// SocketOf reports the socket hosting worker w.
func (v *View) SocketOf(w int) int { return v.sockets[w] }

// Sockets reports the machine's socket count.
func (v *View) Sockets() int { return v.top.Sockets() }

// Hops reports the distance-matrix hop count between two sockets.
func (v *View) Hops(a, b int) int { return v.top.Distance(a, b) }

// MaxHops reports the machine's diameter in hops (the largest hop class).
func (v *View) MaxHops() int { return v.top.MaxDistance() }

// SocketMates returns the ids of every worker on w's socket, including w
// itself, in ascending order. The returned slice is the engine's own
// candidate list: callers must not modify it.
func (v *View) SocketMates(w int) []int { return v.onSocket[v.sockets[w]] }

// Steal carries the per-attempt state of one steal: who is stealing and
// how the search has been going. It is passed by value — extending it with
// new fields never breaks existing policies.
type Steal struct {
	// Self is the thief's worker id (never a valid victim).
	Self int
	// Streak counts the thief's consecutive failed steal attempts since it
	// last acquired a frame to run. Hierarchical policies use it to widen
	// their victim set deterministically; it resets to zero whenever the
	// thief obtains work from any source.
	Streak int
}

// Policy is one scheduling policy. Implementations must be stateless (one
// Policy value is shared by every engine and every goroutine) and
// deterministic: a victim draw may consume randomness only through the rng
// it is handed, so runs replay byte-for-byte from the seed.
type Policy interface {
	// Name is the policy's registry key and display name ("cilk",
	// "numaws").
	Name() string
	// Biased reports whether thieves draw victims from the locality-biased
	// distribution, in which case the engine builds a per-thief victim
	// picker from the run's BiasWeights. Ablation (Config.DisableBias) can
	// still force uniform victims on a biased policy.
	Biased() bool
	// Pushes reports whether the policy performs lazy work pushing through
	// mailboxes: PUSHBACK on stolen or synced foreign frames, the mailbox
	// check in the scheduling loop, and the mailbox half of the steal coin
	// flip. Ablation (Config.DisableMailbox) can switch the machinery off
	// without changing the policy.
	Pushes() bool
	// Victim draws the victim worker id for one steal attempt. picker is
	// the thief's biased picker (non-nil exactly when Biased() held and
	// bias was not ablated away; a drawn id is never at.Self). view is the
	// run's machine view and at the attempt's state. The returned id must
	// be a worker other than at.Self. Implementations must be
	// deterministic, consuming randomness only through rng — the built-in
	// policies draw exactly once so their event streams stay
	// byte-identical to the pre-refactor engine (the pinned goldens hold
	// this).
	Victim(rng *sim.RNG, picker *sim.Picker, view *View, at Steal) int
}

// BulkStealer is the optional steal-amount hook: a policy whose
// StealsBulk() reports true transfers up to half the victim's deque per
// successful steal (Deque.StealHalf) instead of a single frame. The head
// frame is run immediately and the rest are parked in the thief's private
// reserve, drained before its mailbox — never placed in the thief's deque,
// which would corrupt the pop-at-return pairing. Policies that do not
// implement the interface steal single frames.
type BulkStealer interface {
	StealsBulk() bool
}

// Observation is a deterministic snapshot of the engine's counters at an
// adaptation epoch, fed to Adaptive.Adapt. All counts are cumulative since
// the start of the run. StealsByHop is indexed by hop class (successful
// deque steals whose victim was h hops from the thief) and must be treated
// as read-only.
type Observation struct {
	Events        int64
	StealAttempts int64
	Steals        int64
	FailedSteals  int64
	RemoteResumes int64
	LocalResumes  int64
	StealsByHop   []int64
}

// Adaptive is the optional observation hook: the engine calls Adapt every
// AdaptEvery() events (a deterministic event-count epoch, so adaptation
// replays byte-for-byte from the seed) with a counter snapshot and the
// current per-hop-class bias weights. Adapt may rewrite the weights in
// place — every weight must stay strictly positive, the positivity Lemma 1
// requires, and at most math.MaxFloat64/Workers, so a thief's total stays
// finite — and reports whether it changed them, in which case the engine
// rebuilds the per-thief victim pickers. The hook is only consulted when
// the policy is Biased and bias was not ablated away; AdaptEvery() <= 0
// disables it. Policies stay stateless: Adapt must be a pure function of
// its arguments.
type Adaptive interface {
	AdaptEvery() int64
	Adapt(obs Observation, weights []float64) bool
}

// cilkPolicy is classic work stealing as in Intel Cilk Plus (the paper's
// Fig. 2): uniformly random victims, no mailboxes, no work pushing.
type cilkPolicy struct{}

func (cilkPolicy) Name() string   { return "cilk" }
func (cilkPolicy) String() string { return "cilk" }
func (cilkPolicy) Biased() bool   { return false }
func (cilkPolicy) Pushes() bool   { return false }
func (cilkPolicy) Victim(rng *sim.RNG, _ *sim.Picker, view *View, at Steal) int {
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// numawsPolicy is the paper's NUMA-WS scheduler (its Fig. 5):
// locality-biased steals plus lazy work pushing with single-entry mailboxes.
type numawsPolicy struct{}

func (numawsPolicy) Name() string   { return "numaws" }
func (numawsPolicy) String() string { return "numaws" }
func (numawsPolicy) Biased() bool   { return true }
func (numawsPolicy) Pushes() bool   { return true }
func (numawsPolicy) Victim(rng *sim.RNG, picker *sim.Picker, view *View, at Steal) int {
	if picker != nil {
		return picker.Pick(rng)
	}
	// Bias ablated away (DisableBias): same uniform draw as cilk.
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// The two schedulers the paper compares, registered under the names "cilk"
// and "numaws" at init.
var (
	// Cilk is classic work stealing (Fig. 2): uniformly random victims,
	// no mailboxes, no work pushing.
	Cilk Policy = cilkPolicy{}
	// NUMAWS is the paper's scheduler (Fig. 5): locality-biased steals and
	// lazy work pushing with single-entry mailboxes.
	NUMAWS Policy = numawsPolicy{}
)

// registry is the name-keyed policy registry. Registration normally happens
// in init functions of this module's packages, but the mutex makes
// Register/Lookup safe from tests and late registration at any time.
var registry = struct {
	sync.RWMutex
	byName map[string]Policy
}{byName: map[string]Policy{}}

func init() {
	Register(Cilk)
	Register(NUMAWS)
}

// Register adds a policy to the registry under p.Name(). It panics on an
// empty name or a duplicate registration: both are programming errors, and
// silently replacing a scheduler would invalidate every measurement taken
// under the name.
func Register(p Policy) {
	if err := TryRegister(p); err != nil {
		panic(err.Error())
	}
}

// TryRegister is Register returning an error instead of panicking, for
// registration seams (like the pkg/numaws facade hook) that surface misuse
// to their caller.
func TryRegister(p Policy) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("sched: Register: policy has an empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return fmt.Errorf("sched: Register: policy %q already registered", name)
	}
	registry.byName[name] = p
	return nil
}

// unregister removes a policy by name. Test hook only: production code never
// unregisters (measurements must stay attributable to a stable name).
func unregister(name string) {
	registry.Lock()
	defer registry.Unlock()
	delete(registry.byName, name)
}

// Lookup resolves a registered policy by name. Unknown names return an error
// listing every registered name, so callers can surface it as a usage error
// (mirroring how unknown topology names are reported) instead of panicking.
func Lookup(name string) (Policy, error) {
	registry.RLock()
	p, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// Names returns the registered policy names, sorted, so listings and error
// messages are stable.
func Names() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}
