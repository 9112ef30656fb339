package core

import (
	"fmt"
	"iter"

	"repro/internal/cache"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Config assembles a platform instance: machine shape, scheduler policy and
// knobs, and the cache cost model.
type Config struct {
	// Sched configures the machine (Topology, Workers) and the scheduler
	// (Policy, ablation switches, Seed).
	Sched sched.Config
	// Geometry sizes the caches; the zero value takes cache.DefaultGeometry.
	Geometry cache.Geometry
	// Latency sets the access cost table; the zero value takes
	// cache.DefaultLatency.
	Latency cache.Latency
	// Arena, if non-nil, supplies reusable run-scoped storage (the
	// scheduler's worker set, deques, victim pickers and frame pool, and
	// the execution layer's task pool). A nil Arena gets a private one.
	// Reuse never changes results; it only removes per-run allocation.
	// An Arena must back at most one live Runtime at a time.
	Arena *Arena
}

// Arena carries the allocation-heavy state a Runtime can reuse from a
// previous run on the same machine shape. See sched.Arena for the
// scheduler half; the core half pools the per-frame task records and the
// cache-hierarchy model (the largest per-run construction: per-core private
// caches, per-socket LLCs, and the coherence directory's entry slabs).
type Arena struct {
	sched *sched.Arena
	tasks []*simCtx
	hier  *cache.Hierarchy
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{sched: sched.NewArena()} }

// hierarchyFor returns a cache model for the given machine: the arena's
// retained hierarchy Reset to pristine when it models exactly this machine,
// or a freshly built one (retained for next time) when it does not. A Reset
// hierarchy is behaviorally identical to a new one, so reuse never changes
// simulation results.
func (a *Arena) hierarchyFor(top *topology.Topology, geo cache.Geometry, lat cache.Latency) *cache.Hierarchy {
	if a.hier != nil && a.hier.Matches(top, geo, lat) {
		a.hier.Reset()
		return a.hier
	}
	a.hier = cache.NewHierarchy(top, geo, lat)
	return a.hier
}

// DefaultConfig returns a platform on the paper's 4x8 machine with the given
// worker count and policy.
func DefaultConfig(workers int, policy sched.Policy) Config {
	return DefaultConfigOn(topology.XeonE5_4620(), workers, policy)
}

// DefaultConfigOn is DefaultConfig on an arbitrary machine: default cache
// geometry and latencies, bias weights derived from the topology's distance
// matrix, seed 1.
func DefaultConfigOn(top *topology.Topology, workers int, policy sched.Policy) Config {
	return Config{
		Sched: sched.Config{
			Topology: top,
			Workers:  workers,
			Policy:   policy,
			Seed:     1,
		},
	}
}

// Report is the outcome of one run.
type Report struct {
	// Time is the virtual completion time in cycles: TS for a serial run,
	// T_P for a simulated parallel run.
	Time int64
	// Workers is the worker count used (1 for serial).
	Workers int
	// Sched holds scheduler statistics; nil for serial runs.
	Sched *sched.Stats
	// Cache aggregates memory-hierarchy statistics over all cores.
	Cache cache.Stats
	// DAG is the work and span of the computation; zero for serial runs.
	DAG DAG
}

// DAG holds the two quantities the paper's Section IV analysis is stated
// in, measured on the run's computation dag: every strand is a node
// weighted by its cycle cost, and spawn, call, sync and return are its
// series-parallel edges. The edges are a property of the program, but a
// strand's memory costs depend on where and when it runs, so only a
// program that charges compute alone measures the same work and span
// under every worker count, policy and seed.
type DAG struct {
	Work int64 // total strand cost of this run (no scheduler bookkeeping)
	Span int64 // cost of the longest path of this run
}

// Parallelism is Work/Span, the paper's T1/T∞ when measured at one
// worker (0 for an empty dag).
func (d DAG) Parallelism() float64 {
	if d.Span == 0 {
		return 0
	}
	return float64(d.Work) / float64(d.Span)
}

// Runtime is one instantiated platform: an allocator, a cache hierarchy and
// a scheduler. A Runtime runs one computation (fresh Runtimes give fresh,
// cold-cache machines, which keeps measurements independent).
type Runtime struct {
	cfg    Config
	alloc  *memory.Allocator
	caches *cache.Hierarchy
	engine *sched.Engine
	arena  *Arena

	// Coroutine pool for this run: one iter.Pull coroutine per live frame,
	// reused by a later frame once its own returns; closeUnits stops them.
	units     []*unit
	freeUnits []*unit

	// work and span accumulate Report.DAG as strands end.
	work, span int64
	// loopOnly sends every yield back to the engine's loop, bypassing
	// Engine.Continue. Nothing outside tests sets it: the workloads
	// package's TestFastPathMatchesEngineLoop turns it on to check the fast
	// path is invisible in results.
	loopOnly bool

	used bool
}

// NewRuntime builds a platform from cfg.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Sched.Topology == nil {
		panic("core: Config.Sched.Topology is required")
	}
	if cfg.Geometry == (cache.Geometry{}) {
		cfg.Geometry = cache.DefaultGeometry()
	}
	if cfg.Latency == (cache.Latency{}) {
		cfg.Latency = cache.DefaultLatency()
	}
	if cfg.Arena == nil {
		cfg.Arena = NewArena()
	}
	rt := &Runtime{
		cfg:    cfg,
		alloc:  memory.NewAllocator(cfg.Sched.Topology.Sockets()),
		caches: cfg.Arena.hierarchyFor(cfg.Sched.Topology, cfg.Geometry, cfg.Latency),
		arena:  cfg.Arena,
	}
	return rt
}

// Alloc reserves a simulated region. Typically called by the root task
// during setup; also usable before Run.
func (rt *Runtime) Alloc(name string, size int64, pol memory.Policy) *memory.Region {
	return rt.alloc.Alloc(name, size, pol)
}

// Allocator exposes the runtime's allocator for the typed-array helpers.
func (rt *Runtime) Allocator() *memory.Allocator { return rt.alloc }

// Topology reports the machine.
func (rt *Runtime) Topology() *topology.Topology { return rt.cfg.Sched.Topology }

// Places reports how many virtual places the configured run will have (one
// per socket hosting at least one worker). Programs use it at setup time to
// partition data, mirroring the paper's "the programmer needs to use the
// runtime to query the number of sockets and perform the appropriate data
// partitioning".
func (rt *Runtime) Places() int { return rt.cfg.Sched.Topology.SocketsUsed(rt.cfg.Sched.Workers) }

// Run executes root under the configured parallel scheduler and returns the
// run report. A Runtime is single-use.
func (rt *Runtime) Run(root Task) *Report {
	rt.checkFresh()
	// Stop the coroutine pool even if the run panics, so suspended strands
	// never outlive the Runtime.
	defer rt.closeUnits()
	rt.engine = sched.NewEngineIn(rt.arena.sched, rt.cfg.Sched, (*simRunner)(rt))
	rootFrame := rt.engine.NewRootFrame(PlaceAny)
	rootFrame.Data = rt.newTask(rootFrame, root)
	stats := rt.engine.Run(rootFrame)
	return &Report{
		Time:    stats.Makespan,
		Workers: rt.cfg.Sched.Workers,
		Sched:   stats,
		Cache:   rt.caches.TotalStats(),
		DAG:     DAG{Work: rt.work, Span: rt.span},
	}
}

// RunSerial executes root as the serial elision — "removing the parallel
// control constructs": Spawn degenerates to Call and Sync to a no-op — and
// returns the TS report. Memory and compute costs are still charged (to
// core 0), because TS is a real execution time, just without parallel
// overhead.
func (rt *Runtime) RunSerial(root Task) *Report {
	rt.checkFresh()
	ctx := &serialCtx{rt: rt}
	root(ctx)
	return &Report{
		Time:    ctx.clock,
		Workers: 1,
		Cache:   rt.caches.TotalStats(),
	}
}

func (rt *Runtime) checkFresh() {
	if rt.used {
		panic("core: a Runtime runs one computation; create a new Runtime per run")
	}
	rt.used = true
}

// serialCtx implements Context for the serial elision.
type serialCtx struct {
	rt    *Runtime
	clock int64
	place int
	polls int
}

var _ Context = (*serialCtx)(nil)

// serialPollInterval amortizes the serial elision's interrupt poll the way
// interruptPollInterval amortizes the engine's: one check every power-of-two
// calls. Must be a power of two.
const serialPollInterval = 1024

// poll checks the run's interrupt hook. Serial runs execute inline on the
// caller's goroutine with no event loop in between, so the elision itself
// polls at its Spawn/Compute edges; the panic unwinds to the harness
// containment boundary exactly like the engine's.
func (c *serialCtx) poll() {
	c.polls++
	if c.polls&(serialPollInterval-1) == 0 {
		if f := c.rt.cfg.Sched.Interrupt; f != nil && f() {
			panic(sched.ErrInterrupted)
		}
	}
}

func (c *serialCtx) Spawn(t Task) { c.poll(); t(c) }
func (c *serialCtx) SpawnAt(p int, t Task) {
	c.poll()
	old := c.place
	c.place = p
	t(c)
	c.place = old
}
func (c *serialCtx) Sync()           {}
func (c *serialCtx) Call(t Task)     { c.poll(); t(c) }
func (c *serialCtx) Compute(n int64) { c.poll(); c.clock += n }
func (c *serialCtx) NumPlaces() int  { return c.rt.cfg.Sched.Topology.Sockets() }
func (c *serialCtx) Place() int      { return c.place }
func (c *serialCtx) SetPlace(p int)  { c.place = p }
func (c *serialCtx) Worker() int     { return 0 }

func (c *serialCtx) Read(r *memory.Region, off, n int64) {
	c.clock += c.rt.caches.AccessRange(c.clock, 0, r, off, n, false)
}

func (c *serialCtx) Write(r *memory.Region, off, n int64) {
	c.clock += c.rt.caches.AccessRange(c.clock, 0, r, off, n, true)
}

func (c *serialCtx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.clock += c.rt.caches.AccessStrided(c.clock, 0, r, off, stride, elem, count, false)
}

func (c *serialCtx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.clock += c.rt.caches.AccessStrided(c.clock, 0, r, off, stride, elem, count, true)
}

// simRunner adapts the Runtime to sched.Runner. It is a distinct type only
// to keep the Resume method off Runtime's public surface.
type simRunner Runtime

// Resume implements sched.Runner by switching into the frame's coroutine
// until its next scheduling event. Exactly one strand runs at a time, and
// only inside the engine's next call, which keeps the simulation
// deterministic and surfaces a task's panic there. Inside the coroutine,
// yield may carry the worker on through calls, trivial syncs and call
// returns (Engine.Continue), so the yield Resume returns may end a strand
// of a later frame on the same coroutine, not of f.
func (r *simRunner) Resume(w int, f *sched.Frame) sched.Yield {
	rt := (*Runtime)(r)
	c := rt.enter(w, f)
	if c.u == nil {
		c.u = rt.getUnit()
		c.u.task = c
	}
	y, _ := c.u.next()
	return y
}

// enter binds frame f's task record to worker w for the strand about to
// run: the worker, whose core's caches it charges (worker w runs on core
// w), and the virtual time it starts at.
func (rt *Runtime) enter(w int, f *sched.Frame) *simCtx {
	c := f.Data.(*simCtx)
	c.worker = w
	c.start = rt.engine.ClockOf(w)
	return c
}

// unit is one pooled strand coroutine, running the task handed to it.
type unit struct {
	task  *simCtx
	yield func(sched.Yield) bool
	next  func() (sched.Yield, bool)
	stop  func()
}

func (rt *Runtime) getUnit() *unit {
	if n := len(rt.freeUnits); n > 0 {
		u := rt.freeUnits[n-1]
		rt.freeUnits = rt.freeUnits[:n-1]
		return u
	}
	u := &unit{}
	u.next, u.stop = iter.Pull(u.body)
	rt.units = append(rt.units, u)
	return u
}

// body is the coroutine. For each task handed to it, it runs the user
// function, then the implicit sync every Cilk function performs before
// returning, then yields Return. A strand that closeUnits stops sees its
// yield return false and unwinds with unitUnwind, which ends here; any other
// panic is a task failure, re-raised for iter.Pull to carry to next.
func (u *unit) body(yield func(sched.Yield) bool) {
	defer func() {
		//numaws:recover-ok coroutine teardown, not containment: only a stopped strand's unitUnwind ends here; task panics are re-raised to the engine's next call
		if p := recover(); p != nil && p != (unitUnwind{}) {
			panic(fmt.Sprintf("core: task panicked: %v", p))
		}
	}()
	u.yield = yield
	for {
		c := u.task
		c.run()
		// The task is done. Its final yield, a spawned or root return, always
		// goes back to the engine, which recycles the frame; the unit then
		// waits in that yield for whatever task it is handed next, so it can
		// go back to the pool now.
		c.rt.freeUnits = append(c.rt.freeUnits, u)
		c.yield(sched.YieldReturn, nil)
	}
}

// closeUnits stops every coroutine of the run, idle or — when the run
// panicked or was interrupted — suspended mid-task; each sees its yield
// return false and unwinds, so nothing outlives the Runtime.
func (rt *Runtime) closeUnits() {
	for _, u := range rt.units {
		u.stop()
	}
	rt.units, rt.freeUnits = nil, nil
}

// unitUnwind is the panic value a stopped strand raises to unwind the task
// without yielding to an engine that no longer exists.
type unitUnwind struct{}

// newTask returns a pooled task record running fn as frame f.
func (rt *Runtime) newTask(f *sched.Frame, fn Task) *simCtx {
	a := rt.arena
	var c *simCtx
	if n := len(a.tasks); n > 0 {
		c, a.tasks = a.tasks[n-1], a.tasks[:n-1]
	} else {
		c = new(simCtx)
	}
	*c = simCtx{rt: rt, frame: f, fn: fn}
	return c
}

// putTask clears a finished task record — dropping its frame and closure
// references for the collector — and pools it for the next frame.
func (rt *Runtime) putTask(c *simCtx) {
	*c = simCtx{}
	rt.arena.tasks = append(rt.arena.tasks, c)
}

// simCtx is the task record of one frame: the user's Task, the pooled unit
// that runs it and suspends at every spawn/sync/return, and its Context on
// the simulated platform.
//
// It also folds the frame's share of the computation dag's longest path.
// A strand's predecessors always end before it does, so the path is
// carried forward as strands end: into a spawned or called child when it
// starts, back into the parent when the child returns.
type simCtx struct {
	rt      *Runtime
	frame   *sched.Frame
	fn      Task
	u       *unit
	worker  int   // also the core whose caches the strand charges
	start   int64 // virtual time at which the current strand was resumed
	cost    int64 // cycles accumulated in the current strand
	path    int64 // longest dag path ending at the current strand
	join    int64 // longest path of spawned children returned since the last sync
	spawned bool  // whether anything was spawned since the last sync
}

// now is the strand's current virtual time, so DRAM bandwidth queuing sees
// real arrival times.
func (c *simCtx) now() int64 { return c.start + c.cost }

var _ Context = (*simCtx)(nil)

func (c *simCtx) Spawn(t Task)          { c.spawnAt(c.frame.Place, t) }
func (c *simCtx) SpawnAt(p int, t Task) { c.spawnAt(c.checkPlace(p), t) }

func (c *simCtx) checkPlace(p int) int {
	if p != PlaceAny && (p < 0 || p >= c.NumPlaces()) {
		panic(fmt.Sprintf("core: place %d out of range [0,%d)", p, c.NumPlaces()))
	}
	return p
}

func (c *simCtx) spawnAt(place int, fn Task) {
	child := c.rt.engine.NewFrame(c.frame, place)
	task := c.rt.newTask(child, fn)
	child.Data = task
	c.spawned = true
	c.yield(sched.YieldSpawn, task)
}

// Sync joins the paths of the children spawned since the last sync: by the
// time its yield comes back, every one of them has returned.
func (c *simCtx) Sync() {
	c.spawned = false
	c.yield(sched.YieldSync, nil)
	c.path = max(c.path, c.join)
	c.join = 0
}

// Call runs t as a plain (non-spawn) Cilk function call: same worker, no
// stealable continuation, but its own frame — so a cilk_sync inside t waits
// only for t's own spawned children, never the caller's. The callee runs
// inline on the caller's coroutine: a called frame is never stolen and its
// caller resumes only once it returns, so the coroutine's stack is exactly
// the chain of called frames, innermost on top.
func (c *simCtx) Call(t Task) {
	child := c.rt.engine.NewCalledFrame(c.frame, c.frame.Place)
	callee := c.rt.newTask(child, t)
	callee.u = c.u
	child.Data = callee
	c.yield(sched.YieldCall, callee)
	callee.run()
	callee.yield(sched.YieldReturn, nil)
}

// run runs the task's function, then the implicit sync every Cilk function
// performs before returning.
func (c *simCtx) run() {
	c.fn(c)
	if c.spawned {
		c.Sync()
	}
}

// yield ends the current strand with a scheduling event carrying the
// strand's cost, which it adds to the run's work and to the frame's path.
// A spawned or called child (the event's child) starts from that path; a
// returning frame hands its path to its parent. When the engine can run the
// worker's next strand on this coroutine (Engine.Continue), yield returns
// at once with that strand entered; otherwise it hands the event to the
// engine and suspends until the engine resumes a frame on this coroutine.
// A false yield means closeUnits stopped the unit: unwind.
//
// A returning task record is pooled before the event is handed on:
// whichever path the return takes, nothing touches c again.
func (c *simCtx) yield(k sched.YieldKind, child *simCtx) {
	rt, u, w := c.rt, c.u, c.worker
	y := sched.Yield{Kind: k, Cost: c.cost}
	rt.work += c.cost
	c.path += c.cost
	c.cost = 0
	switch k {
	case sched.YieldSpawn, sched.YieldCall:
		child.path = c.path
		y.Child = child.frame
	case sched.YieldReturn:
		if f := c.frame; f.Parent == nil {
			rt.span = c.path
		} else if p := f.Parent.Data.(*simCtx); f.Called() {
			p.path = c.path
		} else {
			p.join = max(p.join, c.path)
		}
		rt.putTask(c)
	}
	if !rt.loopOnly {
		if f := rt.engine.Continue(w, y); f != nil {
			rt.enter(w, f)
			return
		}
	}
	if !u.yield(y) {
		panic(unitUnwind{})
	}
}

func (c *simCtx) Compute(n int64) { c.cost += n }

func (c *simCtx) Read(r *memory.Region, off, n int64) {
	c.cost += c.rt.caches.AccessRange(c.now(), c.worker, r, off, n, false)
}

func (c *simCtx) Write(r *memory.Region, off, n int64) {
	c.cost += c.rt.caches.AccessRange(c.now(), c.worker, r, off, n, true)
}

func (c *simCtx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.cost += c.rt.caches.AccessStrided(c.now(), c.worker, r, off, stride, elem, count, false)
}

func (c *simCtx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.cost += c.rt.caches.AccessStrided(c.now(), c.worker, r, off, stride, elem, count, true)
}

func (c *simCtx) NumPlaces() int { return c.rt.engine.Places() }
func (c *simCtx) Place() int     { return c.frame.Place }
func (c *simCtx) SetPlace(p int) { c.frame.Place = c.checkPlace(p) }
func (c *simCtx) Worker() int    { return c.worker }
