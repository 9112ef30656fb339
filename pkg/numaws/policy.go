package numaws

// The policy registration hook: embedders add their own victim-selection
// strategies to the global registry and they flow through every surface a
// built-in policy reaches — WithPolicy, the measurement methods, the
// tournament, the numaws CLI's -policy flag and the sweep service's
// policies axis. Like RegisterBenchmark, the hook is expressed entirely in
// facade types: a user policy sees a deterministic random source (Rand), a
// read-only machine view (PolicyView) and counter snapshots
// (PolicyObservation), never an engine type, and misuse is an error, not a
// panic.

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
)

// Rand is the deterministic random source handed to policy hooks. All
// randomness a hook consumes must come from it — that is what keeps runs
// byte-identical per seed.
type Rand struct {
	rng *sim.RNG
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r Rand) Intn(n int) int { return r.rng.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r Rand) Float64() float64 { return r.rng.Float64() }

// PolicyView is a victim draw's read-only window onto the run: the
// machine's shape, the thief's identity and how its search has been going.
// It is passed by value and consulting it never allocates.
type PolicyView struct {
	view   *sched.View
	picker *sim.Picker
	self   int
	streak int
}

// Workers reports the run's worker count (always at least 2 during a
// victim draw).
func (v PolicyView) Workers() int { return v.view.Workers() }

// Self reports the stealing worker's id — never a valid victim.
func (v PolicyView) Self() int { return v.self }

// Streak reports the thief's consecutive failed steal attempts since it
// last acquired work; it resets to zero whenever the thief obtains a
// frame. Hierarchical policies widen their victim set as it grows.
func (v PolicyView) Streak() int { return v.streak }

// SocketOf reports the socket hosting worker w.
func (v PolicyView) SocketOf(w int) int { return v.view.SocketOf(w) }

// Sockets reports the machine's socket count.
func (v PolicyView) Sockets() int { return v.view.Sockets() }

// Hops reports the distance-matrix hop count between two sockets.
func (v PolicyView) Hops(a, b int) int { return v.view.Hops(a, b) }

// MaxHops reports the machine's diameter in hops.
func (v PolicyView) MaxHops() int { return v.view.MaxHops() }

// SocketMates returns the ids of every worker on w's socket, including w,
// in ascending order. The slice is the engine's own candidate list: treat
// it as read-only.
func (v PolicyView) SocketMates(w int) []int { return v.view.SocketMates(w) }

// PickUniform draws a victim uniformly from all workers except the thief —
// exactly the draw the built-in cilk policy makes.
func (v PolicyView) PickUniform(r Rand) int {
	return r.rng.PickUniformExcept(v.view.Workers(), v.self)
}

// PickBiased draws a victim from the locality-biased distribution — exactly
// the draw the built-in numaws policy makes. If the run has no biased
// picker (the policy was registered with Biased false, or bias was ablated
// away), it degrades to PickUniform, mirroring numaws under DisableBias.
func (v PolicyView) PickBiased(r Rand) int {
	if v.picker != nil {
		return v.picker.Pick(r.rng)
	}
	return v.PickUniform(r)
}

// PolicyObservation is a deterministic snapshot of the run's counters at
// an adaptation epoch. All counts are cumulative since the start of the
// run; StealsByHop is indexed by hop class (successful steals whose victim
// sat h hops from the thief).
type PolicyObservation struct {
	Events        int64
	StealAttempts int64
	Steals        int64
	FailedSteals  int64
	RemoteResumes int64
	LocalResumes  int64
	StealsByHop   []int64
}

// PolicyDef describes a user scheduling policy for RegisterPolicy.
type PolicyDef struct {
	// Name is the registry key and display name. It must be non-empty and
	// not collide with a registered policy (the built-ins included).
	Name string
	// Biased requests the locality-biased victim distribution: the engine
	// builds per-thief pickers from the run's hop-class bias weights, and
	// PickBiased draws from them.
	Biased bool
	// Pushes activates the lazy work-pushing machinery (mailboxes,
	// PUSHBACK), exactly as under the built-in numaws policy.
	Pushes bool
	// StealHalf makes every successful steal transfer up to half the
	// victim's deque instead of a single frame; the extra frames run on
	// the thief before it steals again.
	StealHalf bool
	// Victim draws the victim worker id for one steal attempt; it is
	// required. The returned id must be a worker other than v.Self(), and
	// the draw must be deterministic: all randomness through r, no state
	// outside the arguments. PickUniform and PickBiased reproduce the
	// built-in draws.
	Victim func(r Rand, v PolicyView) int
	// AdaptEvery, if positive, asks for Adapt to be called every
	// AdaptEvery simulation events. Setting it requires Adapt.
	AdaptEvery int64
	// Adapt, if non-nil, may rewrite the run's per-hop-class bias weights
	// in place at each epoch (every weight must stay strictly positive
	// and at most math.MaxFloat64 divided by the run's worker count) and
	// reports whether it changed them; a weight outside that range fails
	// the run with an error naming Adapt. It must be a pure function of
	// its arguments. Setting it requires a positive AdaptEvery, and it is
	// only consulted on Biased policies when bias is not ablated away.
	Adapt func(obs PolicyObservation, weights []float64) bool
}

// RegisterPolicy adds a scheduling policy to the global registry under
// def.Name. Registered policies are selectable by name everywhere built-in
// policies are — WithPolicy, the tournament, the CLI and the sweep
// service — and join every Session built afterwards. Registration is
// permanent for the process: names cannot be reused or replaced, so every
// measurement stays attributable to a stable name.
func RegisterPolicy(def PolicyDef) error {
	if def.Name == "" {
		return fmt.Errorf("numaws: RegisterPolicy: empty policy name")
	}
	if def.Victim == nil {
		return fmt.Errorf("numaws: RegisterPolicy: policy %q has a nil Victim", def.Name)
	}
	if def.Adapt != nil && def.AdaptEvery <= 0 {
		return fmt.Errorf("numaws: RegisterPolicy: policy %q sets Adapt without a positive AdaptEvery", def.Name)
	}
	if def.Adapt == nil && def.AdaptEvery > 0 {
		return fmt.Errorf("numaws: RegisterPolicy: policy %q sets AdaptEvery without Adapt", def.Name)
	}
	if err := sched.TryRegister(&userPolicy{def: def}); err != nil {
		return fmt.Errorf("numaws: %w", err)
	}
	return nil
}

// userPolicy adapts a facade PolicyDef to the engine's Policy interface
// (plus its optional BulkStealer and Adaptive hooks, which the engine
// consults through the StealHalf flag and the AdaptEvery epoch).
type userPolicy struct {
	def PolicyDef
}

func (u *userPolicy) Name() string     { return u.def.Name }
func (u *userPolicy) String() string   { return u.def.Name }
func (u *userPolicy) Biased() bool     { return u.def.Biased }
func (u *userPolicy) Pushes() bool     { return u.def.Pushes }
func (u *userPolicy) StealsBulk() bool { return u.def.StealHalf }

func (u *userPolicy) Victim(rng *sim.RNG, picker *sim.Picker, view *sched.View, at sched.Steal) int {
	v := u.def.Victim(Rand{rng: rng}, PolicyView{view: view, picker: picker, self: at.Self, streak: at.Streak})
	if v < 0 || v >= view.Workers() || v == at.Self {
		// Victim runs per steal attempt, long after RegisterPolicy could
		// have reported an error; failing here with an attributable
		// message beats an index panic deep inside the engine.
		panic(fmt.Sprintf("numaws: policy %q: Victim returned %d, want a worker in [0,%d) other than %d",
			u.def.Name, v, view.Workers(), at.Self))
	}
	return v
}

func (u *userPolicy) AdaptEvery() int64 { return u.def.AdaptEvery }

func (u *userPolicy) Adapt(obs sched.Observation, weights []float64) bool {
	// The snapshot hands the user a copy of the hop profile so a buggy
	// hook cannot corrupt the engine's counters.
	return u.def.Adapt(PolicyObservation{
		Events:        obs.Events,
		StealAttempts: obs.StealAttempts,
		Steals:        obs.Steals,
		FailedSteals:  obs.FailedSteals,
		RemoteResumes: obs.RemoteResumes,
		LocalResumes:  obs.LocalResumes,
		StealsByHop:   append([]int64(nil), obs.StealsByHop...),
	}, weights)
}
