// Package sched implements the two work-stealing schedulers the paper
// compares — classic Cilk Plus work stealing (its Fig. 2 pseudocode) and
// NUMA-WS (its Fig. 5 pseudocode: locality-biased steals plus lazy work
// pushing through single-entry mailboxes) — on top of a deterministic
// virtual-time engine.
//
// Every design point called out in the paper is represented and
// individually switchable so ablation benchmarks can probe it: the
// deque-vs-mailbox coin flip, the constant pushing threshold, the
// single-entry mailbox, the biased victim distribution, and the work-first
// rule that pushing happens only on steal-path events.
package sched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/deque"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ErrInterrupted is the panic value the engine aborts with when
// Config.Interrupt asks it to stop: a run deadline expired or the
// measurement grid was cancelled mid-run. The harness's containment
// boundary recognizes it (errors.Is) and converts the abort into a typed,
// retryable run error instead of a process crash.
var ErrInterrupted = errors.New("sched: run interrupted (deadline or cancellation)")

// interruptPollInterval amortizes the event loop's interrupt check: one
// poll every this many events. Must be a power of two (the loop masks the
// event counter). At the simulator's event rates this bounds deadline
// overshoot to well under a millisecond of wall time per run.
const interruptPollInterval = 1024

// Scheduling costs, in cycles. The work-path costs (spawn, return) are
// charged to the work term; every other cost is a steal-path event,
// charged to the scheduling term (or to idle time for a failed steal;
// the EagerPush ablation charges its spawn-time pushes to work).
const (
	spawnCost        = 8   // work-path: push continuation at cilk_spawn
	returnCost       = 4   // work-path: pop at spawned-child return
	stealAttemptCost = 150 // steal-path: one steal attempt, before hop cost
	stealHopCost     = 60  // added per hop of thief-victim socket distance
	promoteCost      = 300 // steal-path: shadow-to-full frame promotion
	syncCheckCost    = 80  // steal-path: nontrivial sync / CHECKPARENT
	pushAttemptCost  = 120 // steal-path: one PUSHBACK attempt
	mailboxPopCost   = 40  // steal-path: taking a frame out of a mailbox
)

// maxEvents aborts runaway simulations: a run that processes more events
// than this panics as stuck.
const maxEvents = 2_000_000_000

// Config parameterizes a run. Workers are always packed onto the fewest
// sockets, as in the paper's Fig. 9: worker w runs on core w, on socket
// Topology.SocketOf(w).
type Config struct {
	Topology *topology.Topology
	Workers  int
	// Policy selects the scheduler driving the run (see the Policy
	// interface and the name-keyed registry in policy.go); nil means Cilk,
	// classic work stealing.
	Policy Policy
	Seed   int64

	// PushThreshold is the paper's constant pushing threshold: once a
	// frame accumulates more failed pushes than this, the pusher resumes
	// it itself. Zero takes the default; negative means threshold 0
	// (a single failed attempt already gives up).
	PushThreshold int

	// Ablation switches (all false/zero in the faithful configuration).
	DisableCoinFlip bool // always check the mailbox before the deque
	MailboxCapacity int  // mailbox entries; 0 means the paper's single entry
	EagerPush       bool // push at spawn time (work-path pushing, the anti-pattern)
	DisableBias     bool // uniform victims even under a biased policy

	// Interrupt, if non-nil, is polled every interruptPollInterval events
	// by the event loop; returning true aborts the run by panicking with
	// ErrInterrupted. The harness arms it with a per-run deadline context
	// so a wedged simulation cannot hold a measurement grid hostage. The
	// hook never observes or perturbs simulation state, so an uninterrupted
	// run is byte-identical with or without it.
	Interrupt func() bool

	// Tracer, if non-nil, receives the per-worker execution timeline
	// (strand execution, scheduler bookkeeping, idle probing). See
	// internal/trace for a recorder and renderer.
	Tracer Tracer
}

// TraceKind classifies a traced time span.
type TraceKind int

// Span categories: useful work (strand execution), scheduler bookkeeping
// (spawn/sync/steal/push handling), and idle probing (failed steals).
const (
	TraceWork TraceKind = iota
	TraceBookkeeping
	TraceIdle
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceWork:
		return "work"
	case TraceBookkeeping:
		return "bookkeeping"
	case TraceIdle:
		return "idle"
	}
	return fmt.Sprintf("trace(%d)", int(k))
}

// Tracer receives execution-timeline spans from the engine. Calls are
// serialized (the engine is single-threaded); spans for one worker are
// non-overlapping and in increasing time order.
type Tracer interface {
	Span(worker int, start, end int64, kind TraceKind)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Policy == nil {
		out.Policy = Cilk
	}
	if out.PushThreshold == 0 {
		out.PushThreshold = 4
	}
	if out.PushThreshold < 0 {
		out.PushThreshold = 0
	}
	if out.MailboxCapacity <= 0 {
		out.MailboxCapacity = 1
	}
	return out
}

// DefaultBiasWeights derives the steal-bias weights (w[h] is the steal
// weight of a victim h hops away) from the machine's distance matrix: the
// weight halves with every hop, normalized so the farthest victim has
// weight 1 — w[h] = 2^(maxDistance-h). On the paper's two-hop machine
// this is exactly its {4, 2, 1} distribution; on a deeper machine (e.g.
// an 8-socket ring with 4-hop diameters) the same rule keeps every
// victim's weight positive, which Lemma 1 requires, while preserving the
// 2:1 preference between adjacent hop classes. The exponent is capped
// at 512 so that on a pathologically deep machine (a 1000+-hop ring) the
// nearest hop classes degrade to equal weights instead of a weight *sum*
// that overflows to +Inf and breaks proportional victim selection: even
// with millions of workers, a sum of 2^512-bounded weights stays far below
// float64's 2^1024 ceiling.
func DefaultBiasWeights(top *topology.Topology) []float64 {
	maxHop := top.MaxDistance()
	w := make([]float64, maxHop+1)
	for h := range w {
		exp := maxHop - h
		if exp > 512 {
			exp = 512
		}
		w[h] = math.Ldexp(1, exp)
	}
	return w
}

// WorkerStats is the per-worker time breakdown the paper's Fig. 3 and
// Fig. 8 report: work time ("useful work"), scheduling time ("frame
// promotions upon successful steals and nontrivial syncs" and, in NUMA-WS,
// work pushing), and idle time ("trying to steal but failing to find work").
type WorkerStats struct {
	Work  int64
	Sched int64
	Idle  int64
}

// Stats aggregates a run.
type Stats struct {
	Makespan  int64 // T_P: virtual time when the root returned
	PerWorker []WorkerStats

	Steals         int64 // successful deque steals
	StealAttempts  int64 // all steal attempts, successful or not
	FailedSteals   int64
	Promotions     int64 // shadow-to-full promotions
	MailboxSteals  int64 // frames taken from another worker's mailbox
	MailboxSelf    int64 // frames taken from the worker's own mailbox
	Pushes         int64 // successful mailbox deposits
	PushAttempts   int64
	PushOverflows  int64 // frames that hit the pushing threshold
	NontrivialSync int64
	SuspendedSync  int64
	Spawns         int64
	FramesRun      int64 // successful CHECKPARENT resumptions
	Events         int64
	// RemoteResumes counts frames resumed on a socket other than their
	// designated place (load balancing overriding the hint).
	RemoteResumes int64
	// LocalResumes counts placed frames resumed on their designated socket.
	LocalResumes int64
	// StealsByHop[h] counts successful deque steals whose victim sat h hops
	// from the thief — the per-hop-class remote-access profile adaptive
	// policies observe.
	StealsByHop []int64
	// BulkSteals counts frames acquired beyond the first by StealHalf
	// transfers (bulk-stealing policies only).
	BulkSteals int64
}

// WorkTotal sums work time over workers (the paper's W_P).
func (s *Stats) WorkTotal() int64 { return s.sum(func(w WorkerStats) int64 { return w.Work }) }

// SchedTotal sums scheduling time over workers (S_P).
func (s *Stats) SchedTotal() int64 { return s.sum(func(w WorkerStats) int64 { return w.Sched }) }

// IdleTotal sums idle time over workers (I_P).
func (s *Stats) IdleTotal() int64 { return s.sum(func(w WorkerStats) int64 { return w.Idle }) }

func (s *Stats) sum(f func(WorkerStats) int64) int64 {
	var t int64
	for _, w := range s.PerWorker {
		t += f(w)
	}
	return t
}

// nextAction mirrors the pseudocode's next_action variable.
type nextAction int

const (
	actionSteal nextAction = iota
	actionCheckParent
)

// worker is the engine-side state of one logical worker.
type worker struct {
	id     int // also the core the worker runs on
	socket int
	deque  *deque.Deque[*Frame]
	// mailbox holds ready full frames deposited by work pushing. The
	// paper's mailbox has exactly one entry; larger capacities exist only
	// for the ablation study.
	mailbox []*Frame

	clock int64
	run   *Frame // frame to execute at the next event, if any
	// pending is a finished strand's event, to apply at its end time when
	// hasPending is set. It is held by value: a pointer to it would escape
	// to the heap once per strand.
	pending    Yield
	hasPending bool
	next       nextAction
	check      *Frame // parent to CHECKPARENT, if next == actionCheckParent
	stats      WorkerStats
	// picker draws this thief's victim under the biased policy; built once
	// at construction from the per-hop-class weight table (nil when the
	// run's policy never draws biased victims) and rebuilt at adaptation
	// epochs under an Adaptive policy. Uniform victims need no state at
	// all — see sim.RNG.PickUniformExcept.
	picker *sim.Picker
	// reserve parks the extra frames of a bulk steal (already promoted to
	// full frames) until the worker next reaches the scheduling loop. They
	// must not enter the deque: the deque holds only this worker's own
	// spawn ancestry, and the pop-at-return pairing depends on that.
	reserve []*Frame
	// streak counts consecutive failed steal attempts since the worker
	// last acquired a frame; policies see it as Steal.Streak.
	streak int
}

func (w *worker) mailboxFull() bool  { return len(w.mailbox) == cap(w.mailbox) }
func (w *worker) mailboxEmpty() bool { return len(w.mailbox) == 0 }

// reset returns a pooled worker to its pre-run state, all but its deque: a
// completed run drains every deque, and Arena.workersFor replaces one that
// an aborted run left frames in.
func (w *worker) reset() {
	w.mailbox = w.mailbox[:0]
	for i := range w.reserve {
		w.reserve[i] = nil
	}
	w.reserve = w.reserve[:0]
	w.streak = 0
	w.clock = 0
	w.run = nil
	w.pending, w.hasPending = Yield{}, false
	w.next = actionSteal
	w.check = nil
	w.stats = WorkerStats{}
}

// Engine runs one computation under one scheduler configuration.
type Engine struct {
	cfg      Config
	runner   Runner
	rng      *sim.RNG
	arena    *Arena
	q        *sim.Queue
	workers  []*worker
	onSocket [][]int // per-socket push-candidate worker ids
	view     View    // the policies' read-only machine view
	stats    Stats
	done     bool
	finish   int64
	// maxEvents is the runaway guard, the package constant; tests lower it.
	maxEvents int64
	// pushes caches Policy.Pushes(): whether the mailbox/PUSHBACK
	// machinery is live this run.
	pushes bool
	// bulk caches the BulkStealer hook: successful steals transfer half
	// the victim's deque instead of one frame.
	bulk bool
	// The Adaptive hook, armed only when the policy implements it with a
	// positive epoch AND the run draws biased victims (pickers exist to
	// rebuild). adWeights is the run's private, mutable copy of the
	// per-hop-class bias weights.
	adaptive   Adaptive
	adaptEvery int64
	adaptNext  int64
	adWeights  []float64
}

// NewEngine builds an engine with a private arena. The configuration is
// validated and defaulted. Callers that run many simulations on the same
// machine shape should reuse an Arena via NewEngineIn instead.
func NewEngine(cfg Config, r Runner) *Engine {
	return NewEngineIn(NewArena(), cfg, r)
}

// NewEngineIn builds an engine inside an arena, reusing the arena's worker
// set, victim pickers, push-candidate lists, event queue and frame pool
// when the machine shape matches the arena's previous engine. The arena
// must not back another live engine.
func NewEngineIn(a *Arena, cfg Config, r Runner) *Engine {
	if cfg.Topology == nil {
		panic("sched: Config.Topology is required")
	}
	if cfg.Workers <= 0 || cfg.Workers > cfg.Topology.Cores() {
		panic(fmt.Sprintf("sched: %d workers invalid for a %d-core machine", cfg.Workers, cfg.Topology.Cores()))
	}
	c := cfg.withDefaults()
	needBias := c.Policy.Biased() && !c.DisableBias && c.Workers > 1
	e := &Engine{cfg: c, runner: r, rng: sim.NewRNG(c.Seed), arena: a, q: &a.q, maxEvents: maxEvents}
	e.pushes = c.Policy.Pushes()
	if bs, ok := c.Policy.(BulkStealer); ok {
		e.bulk = bs.StealsBulk()
	}
	e.q.Reset()
	e.workers = a.workersFor(&c, needBias)
	e.onSocket = a.onSocket
	e.view = View{top: c.Topology, workers: c.Workers, onSocket: a.onSocket}
	if ad, ok := c.Policy.(Adaptive); ok && needBias && ad.AdaptEvery() > 0 {
		e.adaptive = ad
		e.adaptEvery = ad.AdaptEvery()
		e.adaptNext = e.adaptEvery
		e.adWeights = DefaultBiasWeights(c.Topology)
	}
	return e
}

// NewFrame is Frame's pooled constructor: like the package-level NewFrame,
// but drawing storage from the engine's arena. The engine recycles the
// frame when it returns, so a steady-state run allocates no frames at all.
func (e *Engine) NewFrame(parent *Frame, place int) *Frame {
	f := e.arena.newFrame()
	f.Place, f.Parent = place, parent
	return f
}

// NewCalledFrame is NewFrame for a plain (non-spawn) call frame.
func (e *Engine) NewCalledFrame(parent *Frame, place int) *Frame {
	f := e.NewFrame(parent, place)
	f.called = true
	return f
}

// NewRootFrame is the pooled constructor for the computation's root frame.
func (e *Engine) NewRootFrame(place int) *Frame {
	f := e.arena.newFrame()
	f.Place, f.Root, f.full = place, true, true
	return f
}

// recycle returns a finished frame to the arena; frames the caller built
// with the package-level constructors are left alone (tests inspect them
// after the run).
func (e *Engine) recycle(f *Frame) {
	if f.pooled {
		e.arena.release(f)
	}
}

// ClockOf reports worker w's current virtual time; the execution layer uses
// it to timestamp a resumed strand's memory accesses.
func (e *Engine) ClockOf(w int) int64 { return e.workers[w].clock }

// Workers reports the worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Places reports the number of virtual places: one per socket that hosts at
// least one worker ("threads on a given socket [form] a single group; each
// group forms a virtual place").
func (e *Engine) Places() int { return e.cfg.Topology.SocketsUsed(e.cfg.Workers) }

// Run executes the computation rooted at root to completion and returns the
// collected statistics. Worker 0 starts with the root, mirroring the
// runtime "always pins the worker who started the root computation at the
// first core on the first socket"; all other workers start stealing.
func (e *Engine) Run(root *Frame) *Stats {
	if !root.Root {
		panic("sched: Run requires a root frame (NewRootFrame)")
	}
	e.done = false
	e.stats = Stats{}
	e.stats.StealsByHop = make([]int64, e.cfg.Topology.MaxDistance()+1)
	e.workers[0].run = root
	for _, w := range e.workers {
		w.next = actionSteal
		e.q.Push(w.clock, w.id)
	}
	// Every event re-queues the worker it ran and takes the earliest one
	// in a single PushPop, so the queue never empties before the root
	// returns.
	at, id := e.q.Pop()
	for {
		e.stats.Events++
		if e.stats.Events > e.maxEvents {
			panic(fmt.Sprintf("sched: exceeded %d events; computation appears stuck", e.maxEvents))
		}
		// Deadline poll, amortized so the hot loop pays one mask-and-branch
		// per event. The panic unwinds to the harness containment boundary.
		if e.stats.Events&(interruptPollInterval-1) == 0 && e.cfg.Interrupt != nil && e.cfg.Interrupt() {
			panic(ErrInterrupted)
		}
		// Adaptation epoch: a deterministic event count, so an adaptive
		// run replays byte-for-byte from its seed.
		if e.adaptive != nil && e.stats.Events == e.adaptNext {
			e.adaptNext += e.adaptEvery
			e.adaptTick()
		}
		w := e.workers[id]
		if at > w.clock {
			w.clock = at
		}
		switch {
		case w.hasPending:
			w.hasPending = false
			e.apply(w, w.pending)
		case w.run != nil:
			e.execute(w)
		default:
			e.schedule(w)
		}
		if e.done {
			break
		}
		at, id = e.q.PushPop(w.clock, w.id)
	}
	e.stats.Makespan = e.finish
	e.stats.PerWorker = make([]WorkerStats, len(e.workers))
	for i, w := range e.workers {
		st := w.stats
		// Account the tail gap between a worker's last event and the end
		// of the run as idle time, so Work+Sched+Idle ≈ P * T_P.
		if w.clock < e.finish {
			st.Idle += e.finish - w.clock
		}
		e.stats.PerWorker[i] = st
	}
	return &e.stats
}

// execute advances w's assigned frame by one strand. The resulting
// scheduling event (push, pop, sync check) is deferred to the strand's
// completion time: the strand occupies [clock, clock+cost), and other
// workers' events inside that window must observe the deque as it was when
// the strand began — otherwise a long strand would, for example, pop its
// parent continuation "at" its start and collapse the steal window to
// nothing.
//
// The Runner may carry the worker through further strands inside Resume
// (see Continue), so the strand that y ends starts at w.clock as Resume
// returns, not as it was called.
func (e *Engine) execute(w *worker) {
	y := e.runner.Resume(w.id, w.run)
	e.endStrand(w, y)
	w.pending, w.hasPending = y, true
}

// endStrand charges a finished strand to its worker: the strand occupies
// [w.clock, w.clock+y.Cost) and is useful work.
func (e *Engine) endStrand(w *worker, y Yield) {
	start := w.clock
	w.clock += y.Cost
	w.stats.Work += y.Cost
	if e.cfg.Tracer != nil && w.clock > start {
		e.cfg.Tracer.Span(w.id, start, w.clock, TraceWork)
	}
}

// Continue is the work-first fast path for a Runner whose next strand
// would run on the same host stack: called from inside Resume with the
// yield y that ends worker w's current strand, it either processes the
// next two events itself and returns the frame w now runs, or declines
// with nil and leaves every piece of engine state untouched (the Runner
// then returns y from Resume as usual).
//
// It handles the three yields after which w runs again at once with
// nothing for another worker to see: a plain call (w runs the callee), a
// trivial sync (w continues the same frame) and a called frame's return (w
// resumes the caller). For these, the loop in Run would process exactly
// two events for w back to back — applying y, then executing w's next
// frame — provided that after the strand and y's cost no other worker's
// (time, id) comes first, which is the queue's Before. Continue makes that
// check and then does what those two events do: the strand's epilogue,
// apply, and the Events count, with the same stats and tracer spans. It
// also declines when either event would run one of the loop's hooks (the
// maxEvents guard, the interrupt poll, an adaptation epoch), so those only
// ever run on the engine's own goroutine, between Resume calls.
func (e *Engine) Continue(wid int, y Yield) *Frame {
	w := e.workers[wid]
	f := w.run
	end := w.clock + y.Cost
	switch {
	case y.Kind == YieldCall:
	case y.Kind == YieldSync && !f.stolen && f.children == 0:
	case y.Kind == YieldReturn && f.called:
		end += returnCost
	default:
		return nil
	}
	n := e.stats.Events
	if !e.hookFree(n+1) || !e.hookFree(n+2) || !e.q.Before(end, wid) {
		return nil
	}
	e.endStrand(w, y)
	e.stats.Events++
	e.apply(w, y)
	e.stats.Events++
	return w.run
}

// hookFree reports whether Run's event number n runs none of the loop's
// hooks: it stays within maxEvents, is not an interrupt poll and is not an
// adaptation epoch.
func (e *Engine) hookFree(n int64) bool {
	return n <= e.maxEvents && n&(interruptPollInterval-1) != 0 &&
		(e.adaptive == nil || n != e.adaptNext)
}

// apply performs the scheduling event a completed strand ended with
// (Fig. 2 spawn/return handling, Fig. 5 sync handling).
func (e *Engine) apply(w *worker, y Yield) {
	f := w.run
	start := w.clock
	defer func() {
		if e.cfg.Tracer != nil && w.clock > start {
			// Spawn and return handling is work-path cost (the engine
			// charges it to the work term); sync handling is steal-path.
			kind := TraceWork
			if y.Kind == YieldSync {
				kind = TraceBookkeeping
			}
			e.cfg.Tracer.Span(w.id, start, w.clock, kind)
		}
	}()
	switch y.Kind {
	case YieldSpawn:
		e.onSpawn(w, f, y.Child)
	case YieldReturn:
		e.onReturn(w, f)
	case YieldSync:
		e.onSync(w, f)
	case YieldCall:
		// A plain call: the callee runs next on this worker; the caller's
		// continuation is not stealable (nothing is pushed). No cost — a
		// call is just a function call.
		w.run = y.Child
	default:
		panic(fmt.Sprintf("sched: unknown yield kind %v", y.Kind))
	}
}

// onSpawn implements "F spawns G": push F's continuation at the tail, keep
// executing G. With the EagerPush ablation enabled, a mis-placed child is
// instead pushed to its designated socket right here — on the work path —
// which is exactly the overhead the work-first principle forbids.
func (e *Engine) onSpawn(w *worker, parent, child *Frame) {
	e.stats.Spawns++
	w.clock += spawnCost
	w.stats.Work += spawnCost
	parent.children++

	if e.cfg.EagerPush && e.cfg.Policy.Pushes() &&
		child.Place != PlaceAny && child.Place != w.socket {
		// Work-path pushing (the anti-pattern): promote the child so it can
		// run detached, then push it toward its socket. The cost lands on
		// the work term because the worker doing useful work pays it, which
		// is exactly what the work-first principle forbids.
		parent.full = true
		parent.stolen = true // the detached child makes the next sync nontrivial
		child.full = true
		cost, ok := e.tryPush(child)
		w.clock += cost
		w.stats.Work += cost // charged to work: this is the point of the ablation
		if ok {
			w.run = parent // parent continues; child runs remotely
			return
		}
		child.full = false // fall back to the normal spawn path below
	}

	w.deque.PushTail(parent)
	w.run = child
}

// onReturn implements "G returns to its spawning parent F". The returning
// frame is dead afterwards — nothing references it — so pooled frames are
// recycled into the arena here, which is what keeps the steady-state loop
// allocation-free.
func (e *Engine) onReturn(w *worker, f *Frame) {
	w.clock += returnCost
	w.stats.Work += returnCost
	if f.Root {
		e.done = true
		e.finish = w.clock
		w.run = nil
		e.recycle(f)
		return
	}
	if f.called {
		// Returning from a plain call: resume the caller right here (its
		// continuation was never stealable, and whichever worker finishes
		// the callee carries the caller forward).
		w.run = f.Parent
		e.recycle(f)
		return
	}
	parent := f.Parent
	parent.children--
	e.recycle(f)
	if popped, ok := w.deque.PopTail(); ok {
		if popped != parent {
			panic("sched: deque tail is not the returning child's parent")
		}
		w.run = parent
		return
	}
	// Parent was stolen; the deque is empty. Check whether we are the last
	// returning child (scheduling loop CHECK_PARENT).
	w.run = nil
	w.next = actionCheckParent
	w.check = parent
}

// onSync implements "F executes cilk_sync" per Fig. 5: trivial for
// non-stolen frames (work path untouched); otherwise a nontrivial sync that
// may succeed (and, under NUMA-WS, push the synched frame home) or suspend.
func (e *Engine) onSync(w *worker, f *Frame) {
	if !f.stolen && f.children == 0 {
		// Nothing to do: a frame that has not been stolen since its last
		// sync has no outstanding children (its spawns all returned via
		// local pops), so the sync is a no-op on the work path. The
		// children check only matters under the EagerPush ablation, where
		// detached children can exist without a steal.
		w.run = f
		return
	}
	w.clock += syncCheckCost
	w.stats.Sched += syncCheckCost
	e.stats.NontrivialSync++
	if f.children == 0 {
		// CHECKSYNC succeeded.
		f.stolen = false
		if e.pushHomeIfForeign(w, f) {
			w.run = nil
			w.next = actionSteal
			return
		}
		w.run = f
		return
	}
	// Outstanding children: suspend and go steal. A suspended frame needs
	// full-frame bookkeeping (its children will resume it from other
	// workers).
	e.stats.SuspendedSync++
	f.suspended = true
	f.full = true
	w.run = nil
	w.next = actionSteal
}

// pushHomeIfForeign applies Fig. 5's PUSHBACK on a ready full frame that is
// earmarked for a different socket. It reports whether the frame was handed
// away (in which case the caller must not run it). Costs are charged to the
// scheduling term — this is a steal-path event.
func (e *Engine) pushHomeIfForeign(w *worker, f *Frame) bool {
	if !e.pushes {
		return false
	}
	if f.Place == PlaceAny || f.Place == w.socket {
		return false
	}
	cost, ok := e.tryPush(f)
	w.clock += cost
	w.stats.Sched += cost
	return ok
}

// tryPush performs PUSHBACK(F): repeatedly pick a random worker on F's
// designated socket and try to deposit F in its mailbox; each failure
// increments the frame's counter, and once the counter exceeds the pushing
// threshold the push gives up (the caller resumes F itself). Returns the
// total cycle cost of the attempts and whether F was deposited.
func (e *Engine) tryPush(f *Frame) (int64, bool) {
	// A place outside the machine simply has no candidates (the socket
	// then counts as hosting no workers and the push overflows below).
	var candidates []int
	if f.Place >= 0 && f.Place < len(e.onSocket) {
		candidates = e.onSocket[f.Place]
	}
	var cost int64
	if len(candidates) == 0 {
		// The designated socket hosts no workers in this run (fewer sockets
		// in use than places the program named); treat as threshold
		// overflow.
		e.stats.PushOverflows++
		return 0, false
	}
	for {
		e.stats.PushAttempts++
		cost += pushAttemptCost
		r := e.workers[candidates[e.rng.Intn(len(candidates))]]
		if !r.mailboxFull() {
			r.mailbox = append(r.mailbox, f)
			e.stats.Pushes++
			return cost, true
		}
		f.pushCount++
		if f.pushCount > e.cfg.PushThreshold {
			e.stats.PushOverflows++
			return cost, false
		}
	}
}

// schedule runs one iteration of the scheduling loop (Fig. 2 lines 19-25,
// Fig. 5 lines 17-29) for a worker with no assigned frame.
func (e *Engine) schedule(w *worker) {
	var frame *Frame
	start := w.clock
	defer func() {
		if e.cfg.Tracer != nil && w.clock > start {
			kind := TraceIdle
			if frame != nil {
				kind = TraceBookkeeping
			}
			e.cfg.Tracer.Span(w.id, start, w.clock, kind)
		}
	}()

	if w.next == actionCheckParent {
		// CHECKPARENT: resume the suspended parent if we were its last
		// returning child.
		parent := w.check
		w.check = nil
		w.next = actionSteal
		w.clock += syncCheckCost
		w.stats.Sched += syncCheckCost
		if parent.suspended && parent.children == 0 {
			parent.suspended = false
			parent.stolen = false // the sync completes as the frame resumes
			frame = parent
			e.stats.FramesRun++
		}
	}

	// Fig. 5 lines 21-24: a resumed parent earmarked elsewhere is pushed
	// home instead of run here.
	if frame != nil && e.pushHomeIfForeign(w, frame) {
		frame = nil
	}

	// In the faithful schedulers a worker reaches the scheduling loop only
	// with an empty deque ("when a worker is about to return control back
	// to the scheduling loop, its deque must be empty"). The EagerPush
	// ablation breaks that invariant — a frame can suspend at a sync while
	// its ancestors' continuations still sit in the deque — so resume the
	// youngest such continuation before acquiring any unrelated work:
	// running a mailbox or stolen frame on top of a non-empty deque would
	// corrupt the pop-at-return pairing.
	if frame == nil {
		if popped, ok := w.deque.PopTail(); ok {
			w.clock += syncCheckCost
			w.stats.Sched += syncCheckCost
			frame = popped
		}
	}

	// Frames parked by a bulk steal: run the deepest first, the frame a
	// deque pop would have produced had the ancestry been this worker's
	// own. Unparking is a steal-path event, costed like a mailbox take.
	if frame == nil && len(w.reserve) > 0 {
		frame = w.reserve[len(w.reserve)-1]
		w.reserve[len(w.reserve)-1] = nil
		w.reserve = w.reserve[:len(w.reserve)-1]
		w.clock += mailboxPopCost
		w.stats.Sched += mailboxPopCost
	}

	// Fig. 5 line 26: check our own mailbox before stealing.
	if frame == nil && e.pushes && !w.mailboxEmpty() {
		frame = e.popMailbox(w)
		w.clock += mailboxPopCost
		w.stats.Sched += mailboxPopCost
		e.stats.MailboxSelf++
	}

	if frame == nil {
		frame = e.steal(w)
	}
	if frame != nil {
		w.streak = 0
		e.noteResume(frame, w)
	}
	w.run = frame
}

func (e *Engine) noteResume(f *Frame, w *worker) {
	if f.Place == PlaceAny {
		return
	}
	if f.Place == w.socket {
		e.stats.LocalResumes++
	} else {
		e.stats.RemoteResumes++
	}
}

func (e *Engine) popMailbox(w *worker) *Frame {
	f := w.mailbox[0]
	copy(w.mailbox, w.mailbox[1:])
	w.mailbox = w.mailbox[:len(w.mailbox)-1]
	return f
}

// steal performs one steal attempt and returns the acquired frame or nil.
// Under cilk this is RANDOMSTEAL; under numaws it is BIASEDSTEALWITHPUSH.
func (e *Engine) steal(w *worker) *Frame {
	if e.cfg.Workers == 1 {
		// No victims exist; spin (costed) until our own work appears.
		w.clock += stealAttemptCost
		w.stats.Idle += stealAttemptCost
		return nil
	}
	e.stats.StealAttempts++

	// Victim selection is the policy's hook: for the built-in schedulers,
	// one Float64 draw either way, consumed exactly as the linear weighted
	// scan would (the cross-check tests in internal/sim pin this), so the
	// event stream is byte-identical to the old enum-dispatched code.
	victim := e.workers[e.cfg.Policy.Victim(e.rng, w.picker, &e.view, Steal{Self: w.id, Streak: w.streak})]
	hop := e.cfg.Topology.Distance(w.socket, victim.socket)
	attemptCost := stealAttemptCost + int64(hop)*stealHopCost
	w.clock += attemptCost

	if !e.pushes {
		return e.stealDeque(w, victim, attemptCost, hop)
	}

	// NUMA-WS: flip a coin between the victim's deque and its mailbox. The
	// paper's analysis needs the deque reachable with probability 1/2 so
	// the critical node at some deque head keeps probability >= 1/(2cP).
	intoDeque := e.rng.Coin()
	if e.cfg.DisableCoinFlip {
		intoDeque = false // ablation: always look at the mailbox first
	}
	if intoDeque {
		return e.stealDeque(w, victim, attemptCost, hop)
	}
	if victim.mailboxEmpty() {
		// Outcome 1: empty mailbox; fall back to the deque.
		return e.stealDeque(w, victim, attemptCost, hop)
	}
	f := e.popMailbox(victim)
	if f.Place == PlaceAny || f.Place == w.socket {
		// Outcome 2: earmarked for our socket; take it.
		w.stats.Sched += attemptCost + mailboxPopCost
		w.clock += mailboxPopCost
		e.stats.MailboxSteals++
		return f
	}
	// Outcome 3: earmarked for a different socket; we become the pusher.
	cost, ok := e.tryPush(f)
	w.clock += cost
	w.stats.Sched += cost + attemptCost
	if ok {
		return nil
	}
	// Pushing threshold reached: take it ourselves.
	e.stats.MailboxSteals++
	return f
}

// stealDeque attempts to take the head of the victim's deque, promoting the
// stolen frame, and — under NUMA-WS — pushing it home if it is earmarked for
// a different socket. Under a bulk-stealing policy the transfer takes up to
// half the victim's deque instead.
func (e *Engine) stealDeque(w, victim *worker, attemptCost int64, hop int) *Frame {
	if e.bulk {
		return e.stealBulk(w, victim, attemptCost, hop)
	}
	f, ok := victim.deque.StealHead()
	if !ok {
		w.stats.Idle += attemptCost
		e.stats.FailedSteals++
		w.streak++
		return nil
	}
	if !f.full {
		e.stats.Promotions++
	}
	f.promote()
	w.clock += promoteCost
	w.stats.Sched += attemptCost + promoteCost
	e.stats.Steals++
	e.stats.StealsByHop[hop]++
	if e.pushHomeIfForeign(w, f) {
		return nil
	}
	return f
}

// bulkStealMax bounds one StealHalf transfer. Spawn depth — and therefore
// deque depth — is logarithmic for divide-and-conquer programs, so the
// bound exists only to keep a pathological deque from turning one steal
// into an unbounded promotion bill.
const bulkStealMax = 256

// stealBulk is stealDeque's bulk variant (BulkStealer policies): take up
// to half the victim's deque, promote every frame (promoteCost each — the
// amount stolen changes, the per-frame bookkeeping cost does not), run the
// head frame and park the rest in the thief's reserve.
func (e *Engine) stealBulk(w, victim *worker, attemptCost int64, hop int) *Frame {
	if e.arena.bulkBuf == nil {
		e.arena.bulkBuf = make([]*Frame, bulkStealMax)
	}
	buf := e.arena.bulkBuf
	n := victim.deque.StealHalf(buf)
	if n == 0 {
		w.stats.Idle += attemptCost
		e.stats.FailedSteals++
		w.streak++
		return nil
	}
	first := buf[0]
	for i := 0; i < n; i++ {
		f := buf[i]
		buf[i] = nil
		if !f.full {
			e.stats.Promotions++
		}
		f.promote()
		e.stats.Steals++
		e.stats.StealsByHop[hop]++
		if i > 0 {
			e.stats.BulkSteals++
			w.reserve = append(w.reserve, f)
		}
	}
	cost := int64(n) * promoteCost
	w.clock += cost
	w.stats.Sched += attemptCost + cost
	if e.pushHomeIfForeign(w, first) {
		return nil
	}
	return first
}

// adaptTick runs one Adaptive epoch: snapshot the counters, let the policy
// rewrite its hop-class weights, and rebuild the per-thief pickers if it
// did. Only armed when the run draws biased victims (pickers exist).
func (e *Engine) adaptTick() {
	obs := Observation{
		Events:        e.stats.Events,
		StealAttempts: e.stats.StealAttempts,
		Steals:        e.stats.Steals,
		FailedSteals:  e.stats.FailedSteals,
		RemoteResumes: e.stats.RemoteResumes,
		LocalResumes:  e.stats.LocalResumes,
		StealsByHop:   e.stats.StealsByHop,
	}
	if !e.adaptive.Adapt(obs, e.adWeights) {
		return
	}
	// A weight above MaxFloat64/Workers is finite, but a thief's draw
	// sums up to Workers-1 of them: the total would overflow to +Inf and
	// the draw would land on the thief itself, blaming the victim hook.
	limit := math.MaxFloat64 / float64(e.cfg.Workers)
	for h, wt := range e.adWeights {
		if !(wt > 0) || wt > limit {
			panic(fmt.Sprintf("sched: policy %q: Adapt set weight %g for hop class %d; every weight must stay positive and at most %g",
				e.cfg.Policy.Name(), wt, h, limit))
		}
	}
	e.arena.buildPickers(e.cfg.Topology, e.adWeights)
	// The arena's cached pickers no longer match the default weights;
	// force a rebuild on the next reuse.
	e.arena.pickersDirty = true
}
