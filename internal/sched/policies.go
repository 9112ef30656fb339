package sched

// Three policies from the wider work-stealing literature, exercising every
// optional hook the refactored contract offers. Each shares the deque
// discipline, promotion, sync handling and cost accounting with cilk and
// numaws by construction — the paper's controlled-comparison methodology —
// and differs only through the Policy hooks, so a tournament across all
// five is an apples-to-apples ranking.

import "repro/internal/sim"

// stealHalfPolicy is classic work stealing with bulk transfers: uniformly
// random victims, but a successful steal takes half the victim's deque
// (Deque.StealHalf) instead of one frame. The head frame runs immediately;
// the rest wait in the thief's reserve. Fewer, fatter steals trade steal
// traffic for promotion cost — each transferred frame still pays
// promoteCost, so the per-frame bookkeeping bill matches single-frame
// stealing exactly.
type stealHalfPolicy struct{}

func (stealHalfPolicy) Name() string     { return "steal-half" }
func (stealHalfPolicy) String() string   { return "steal-half" }
func (stealHalfPolicy) Biased() bool     { return false }
func (stealHalfPolicy) Pushes() bool     { return false }
func (stealHalfPolicy) StealsBulk() bool { return true }
func (stealHalfPolicy) Victim(rng *sim.RNG, _ *sim.Picker, view *View, at Steal) int {
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// socketFirstPolicy is hierarchical work stealing: a thief exhausts its
// same-socket victims before probing remote sockets. "Exhausted" is
// deterministic — after len(mates)-1 consecutive failed attempts (one
// expected probe per socket mate) the thief widens to the whole machine,
// and any acquired frame resets the streak. No mailboxes, no work pushing:
// the policy is cilk with a locality-first victim order, isolating the
// value of hierarchy from the value of pushing.
type socketFirstPolicy struct{}

func (socketFirstPolicy) Name() string   { return "socket-first" }
func (socketFirstPolicy) String() string { return "socket-first" }
func (socketFirstPolicy) Biased() bool   { return false }
func (socketFirstPolicy) Pushes() bool   { return false }
func (socketFirstPolicy) Victim(rng *sim.RNG, _ *sim.Picker, view *View, at Steal) int {
	mates := view.SocketMates(at.Self)
	if n := len(mates); n > 1 && at.Streak < n-1 {
		// Uniform over the socket mates excluding self: draw from n-1
		// slots and map a self hit to the last mate (which is never self
		// when the draw could land on self).
		v := mates[rng.Intn(n-1)]
		if v == at.Self {
			v = mates[n-1]
		}
		return v
	}
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// adaptiveBiasEpoch is the adaptive-bias adaptation interval in events.
// Event counts are deterministic, so every run adapts at the same points
// regardless of host machine or wall clock.
const adaptiveBiasEpoch = 1 << 15

// adaptiveBiasPolicy is NUMA-WS with a feedback loop on the victim
// distribution: it starts from the run's hop-class bias weights and, every
// adaptiveBiasEpoch events, re-weights each hop class by its observed share
// of successful steals — the engine's remote-access profile. Hop classes
// where steals keep succeeding (work actually lives there) gain weight;
// classes that never pay out decay toward the floor. Every weight stays in
// [1, 8], strictly positive as Lemma 1 requires, so the critical-path
// bound's shape survives adaptation.
type adaptiveBiasPolicy struct{}

func (adaptiveBiasPolicy) Name() string      { return "adaptive-bias" }
func (adaptiveBiasPolicy) String() string    { return "adaptive-bias" }
func (adaptiveBiasPolicy) Biased() bool      { return true }
func (adaptiveBiasPolicy) Pushes() bool      { return true }
func (adaptiveBiasPolicy) AdaptEvery() int64 { return adaptiveBiasEpoch }
func (adaptiveBiasPolicy) Victim(rng *sim.RNG, picker *sim.Picker, view *View, at Steal) int {
	if picker != nil {
		return picker.Pick(rng)
	}
	return rng.PickUniformExcept(view.Workers(), at.Self)
}

// Adapt rewrites weights[h] to 1 + 7*(share of successful steals at hop
// h), a pure function of the observation so the policy itself stays
// stateless. Before any steal succeeds there is nothing to learn and the
// weights are left alone.
func (adaptiveBiasPolicy) Adapt(obs Observation, weights []float64) bool {
	var total int64
	for _, n := range obs.StealsByHop {
		total += n
	}
	if total == 0 {
		return false
	}
	changed := false
	for h := range weights {
		var observed int64
		if h < len(obs.StealsByHop) {
			observed = obs.StealsByHop[h]
		}
		w := 1 + 7*float64(observed)/float64(total)
		if w != weights[h] {
			weights[h] = w
			changed = true
		}
	}
	return changed
}

// The literature policies, registered alongside cilk and numaws at init.
var (
	// StealHalf is uniform work stealing with half-deque transfers.
	StealHalf Policy = stealHalfPolicy{}
	// SocketFirst is hierarchical stealing: same-socket victims first.
	SocketFirst Policy = socketFirstPolicy{}
	// AdaptiveBias is NUMA-WS with epoch-adaptive hop-class weights.
	AdaptiveBias Policy = adaptiveBiasPolicy{}
)

func init() {
	Register(StealHalf)
	Register(SocketFirst)
	Register(AdaptiveBias)
}
