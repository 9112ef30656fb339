// Package harness defines the paper's experiments: which benchmark
// configurations run on which platform at which worker counts, and the
// measurement loops that regenerate each figure and table.
//
// The paper's machine-and-methodology choices are encoded here: workers are
// packed onto the fewest sockets (Fig. 9's policy), Cilk Plus baselines run
// with first-touch placement after serial initialization and no hints,
// NUMA-WS runs use partitioned placement plus hints (except matmul and
// strassen, which per the paper use no hints), and both platforms run
// identical inputs and base-case sizes.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/pkg/numaws/results"
)

// arenas is the free list of run-scoped simulator storage (worker
// deques, victim pickers, frame and task pools — see core.Arena). Each
// simulation borrows one arena for the duration of the run, so with
// opt.Jobs host workers at most Jobs arenas exist and the thousands of
// (spec, policy, P, seed) runs of a sweep stop re-allocating engine
// state. Reuse never changes measured results (core.Arena's contract,
// pinned by TestPaperPresetByteIdentical and the sched arena tests).
//
// Like a sync.Pool, the list lets go of arenas nobody uses: every garbage
// collection demotes the free arenas to victims and drops the previous
// victims, so an arena idle through two collections is freed and a
// long-lived service does not pin engine state after its last
// simulation. Unlike a sync.Pool, any goroutine can take any free arena:
// a pool's per-P private slot cannot be taken by a Get on another P, so a
// goroutine that had migrated built a fresh arena beside an idle one.
var arenas struct {
	mu           sync.Mutex
	free, victim []*core.Arena
}

func init() { demoteArenasAtGC() }

// demoteArenasAtGC arms a cleanup on an unreachable sentinel, which the
// collector runs after its next cycle; the cleanup demotes the free
// arenas and re-arms itself. The sentinel holds a pointer so it is never
// packed into a tiny-allocator block, which would free it late.
func demoteArenasAtGC() {
	runtime.AddCleanup(new(struct{ _ *byte }), func(struct{}) {
		arenas.mu.Lock()
		clear(arenas.victim)
		arenas.victim, arenas.free = arenas.free, arenas.victim[:0]
		arenas.mu.Unlock()
		demoteArenasAtGC()
	}, struct{}{})
}

// getArena borrows a free arena, or builds one when none is free. With
// no free arena left, the victims are promoted back to free.
func getArena() *core.Arena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if len(arenas.free) == 0 {
		arenas.free, arenas.victim = arenas.victim, arenas.free
	}
	n := len(arenas.free)
	if n == 0 {
		return core.NewArena()
	}
	a := arenas.free[n-1]
	arenas.free[n-1] = nil
	arenas.free = arenas.free[:n-1]
	return a
}

// putArena returns an arena to the free list.
func putArena(a *core.Arena) {
	arenas.mu.Lock()
	arenas.free = append(arenas.free, a)
	arenas.mu.Unlock()
}

// Spec describes one benchmark configuration (one row of the paper's
// tables). It is the registry's spec type (see internal/workloads): the
// harness consumes whatever benchmarks are registered, in-tree or
// user-registered through the public facade.
type Spec = workloads.Spec

// Scale selects input sizes.
type Scale = workloads.Scale

// Available scales.
const (
	// ScaleSmall runs in seconds; used by tests and -short benches.
	ScaleSmall = workloads.ScaleSmall
	// ScaleFull is the EXPERIMENTS.md configuration.
	ScaleFull = workloads.ScaleFull
)

// Specs returns every registered benchmark's configuration at the given
// scale, in name order — the paper's nine plus every other registered
// benchmark (the Cilk-suite additions of internal/workloads, and anything
// registered through pkg/numaws.RegisterBenchmark). The paper's nine
// register in internal/workloads with their exact pre-registry dims, so
// restricting a run to those names reproduces the pinned golden output
// byte for byte.
func Specs(s Scale) []Spec { return workloads.Specs(s) }

// SelectSpecs resolves benchmark names against all, preserving the
// requested order and rejecting unknown or duplicate names. It is the one
// name resolver of the facade's sessions and the sweep service.
func SelectSpecs(all []Spec, names []string) ([]Spec, error) {
	byName := make(map[string]Spec, len(all))
	known := make([]string, 0, len(all))
	for _, s := range all {
		byName[s.Name] = s
		known = append(known, s.Name)
	}
	seen := make(map[string]bool, len(names))
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("no benchmark named %q (want %s)", n, strings.Join(known, ", "))
		}
		if seen[n] {
			return nil, fmt.Errorf("benchmark %q named twice", n)
		}
		seen[n] = true
		out = append(out, s)
	}
	return out, nil
}

// Options configures measurement runs.
//
// Zero values mean defaults: every zero (or nil) field selects the
// documented default below, applied by fill at each entry point, so
// Options{} is "the paper's configuration, measured serially". The flip
// side of this contract is that Options cannot express a literal zero —
// Seed: 0 is indistinguishable from the default Seed: 1, and a deliberate
// 1-worker run must say P: 1, because P: 0 means the whole machine (32 on
// the paper's topology). Callers wanting
// anything other than the default must pass an explicit non-zero value.
// TestOptionsZeroValuesMeanDefaults pins this contract.
type Options struct {
	Topology *topology.Topology // nil means the paper's 4x8 machine (topology.XeonE5_4620)
	P        int                // simulated worker count; 0 means the whole machine (Topology.Cores())
	Seed     int64              // scheduler seed; 0 means 1
	// Seeds averages each parallel measurement over this many scheduler
	// seeds (Seed, Seed+1, ...), echoing the paper's "each data point is
	// the average of 10 runs". 0 means 1, per the zero-value contract —
	// and so does any negative count (fill clamps, because the job
	// decomposition allocates one slot per seed). Front ends that can
	// tell "absent" from "asked for zero" should reject sub-1 counts
	// loudly instead of relying on the clamp: cmd/numaws makes -seeds 0
	// a usage error, matching its unknown -topology/-policy/-bench
	// handling.
	Seeds  int
	Verify bool // verify every run's result
	// Jobs bounds how many independent simulations a grid protocol
	// executes concurrently on host goroutines (see internal/exec); it
	// does not affect the simulated platform or any measured quantity —
	// results are aggregated in canonical order and are identical for
	// every Jobs value. 0 means 1 (serial); exec.DefaultJobs() is the
	// whole-machine setting.
	Jobs int
	// Policy is the NUMA-aware platform of the comparison protocols (the
	// NUMA-WS column of the tables) and the scheduler of the
	// scalability/topology sweeps. nil means sched.NUMAWS, the paper's
	// scheduler. The baseline column is always sched.Cilk.
	Policy sched.Policy
	// FreshInputs disables the workload-input pool and the shared
	// TS/verify reference caches: every run builds its own single-use
	// workload instance and recomputes every serial reference — the fully
	// unamortized path. The zero value (pooled, shared) is the default
	// because amortization never changes measured results: pooled inputs
	// are bit-identical to fresh ones and references depend only on the
	// input data (pinned by TestGridAmortizationByteIdentical).
	FreshInputs bool
	// OnRun, if non-nil, receives every completed simulation of every
	// grid protocol (MeasureAll, MeasureScalability,
	// MeasureTopologies, Tournament) as it finishes — in completion order,
	// not canonical order; calls are serialized. Streaming observes the
	// grid; it never changes the returned results, which are still folded
	// canonically after the last run finishes.
	OnRun func(RunMeta)
	// RunTimeout bounds each individual simulation: a run that exceeds it
	// is interrupted (the engine polls a per-run deadline context) and
	// classified as a transient failure. 0 means no deadline — the zero
	// value must stay free because a deadline, however generous, turns a
	// deterministic grid into one that can observe host load.
	RunTimeout time.Duration
	// Retries re-runs a transiently failed run (timeout; never panic or
	// verification mismatch) up to this many additional attempts. The
	// budget is an attempt count, not a wall-time backoff, so retry
	// behavior is deterministic; each attempt checks out fresh resources,
	// so a retried success is byte-identical to a first-try success.
	// 0 means no retries.
	Retries int
	// Cache, if non-nil, is the result store the runs of MeasureAll,
	// MeasureScalability and MeasureTopologies execute through
	// (see ExecuteThrough): a run whose KeyFor key it holds is filled from
	// it (and emitted through OnRun with Replayed set), and every simulated
	// run is recorded in it. Failed runs are never recorded. Determinism
	// makes a hit exact: a grid answered from a store holds rows deep-equal
	// to a simulated one's. Tournament takes its cache as an argument.
	Cache ResultCache
}

// RunMeta identifies one completed simulation of a measurement grid, for
// OnRun (see results.Run).
type RunMeta = results.Run

func (o Options) fill() Options {
	if o.Topology == nil {
		o.Topology = topology.XeonE5_4620()
	}
	if o.P == 0 {
		// The whole machine. (An earlier revision capped this at the
		// paper's 32, a stale limit from the fixed-4x8 era that silently
		// under-used larger -topology machines.)
		o.P = o.Topology.Cores()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Policy == nil {
		o.Policy = sched.NUMAWS
	}
	// Counts below one (including negatives, reachable from unvalidated
	// flags) mean the default too: the job decomposition allocates one
	// slot per seed, so a negative count must never get that far.
	if o.Seeds < 1 {
		o.Seeds = 1
	}
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	return o
}

// newRuntime builds a fresh platform. arena may be nil (serial runs never
// touch the parallel engine's storage); tracer may be nil (no timeline);
// interrupt may be nil (no run deadline — see interruptFor).
func newRuntime(top *topology.Topology, workers int, pol sched.Policy, seed int64, tracer sched.Tracer, arena *core.Arena, interrupt func() bool) *core.Runtime {
	return core.NewRuntime(core.Config{
		Sched: sched.Config{
			Topology:  top,
			Workers:   workers,
			Policy:    pol,
			Seed:      seed,
			Tracer:    tracer,
			Interrupt: interrupt,
		},
		Arena: arena,
	})
}

// numaAware reports whether runs under pol get the NUMA-aware workload
// configuration (partitioned data placement plus @place hints): any policy
// that exploits locality — biased steals or work pushing — follows the
// paper's NUMA-WS protocol, while the classic baseline runs unhinted with
// serial-first-touch placement.
func numaAware(pol sched.Policy) bool { return pol.Biased() || pol.Pushes() }

// RunOne executes one (spec, policy, P) measurement and returns the run
// report. aware follows the platform: locality-exploiting policies get the
// NUMA-aware workload configuration. The context is checked before the
// simulation starts; a started simulation is interrupted only by
// opt.RunTimeout or cancellation (via the engine's amortized poll). A run
// that fails — panic, deadline, verification — comes back as a *RunError
// after its resources were quarantined; transient failures are retried
// per opt.Retries.
func RunOne(ctx context.Context, spec Spec, pol sched.Policy, opt Options) (*core.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.fill()
	key := KeyFor(spec, pol, opt, false)
	return attemptRun(ctx, key, opt, func(rctx context.Context) (*core.Report, error) {
		return runAttempt(rctx, spec, pol, opt, key, nil)
	})
}

// runAttempt is one attempt of one run — the serial elision when
// key.Serial (pol is then ignored), one parallel simulation otherwise —
// with tracer (may be nil) receiving its timeline: check out the run's
// resources, simulate, verify, settle. The deferred settlement is the
// quarantine mechanism — it runs on the panic unwind path too, so by the
// time contain converts the panic into a RunError, the failed attempt's
// arena and workload instance are already out of circulation. The serial
// elision polls the interrupt hook at its Spawn/Compute edges, so serial
// runs honor RunTimeout too.
func runAttempt(rctx context.Context, spec Spec, pol sched.Policy, opt Options, key journal.Key, tracer sched.Tracer) (*core.Report, error) {
	plan := faultinject.ForRun(key.Bench, failPolicy(key), key.P, key.Seed, key.Serial)
	workers, run := opt.P, (*core.Runtime).Run
	if key.Serial {
		// The serial elision runs on one core with baseline placement.
		pol, workers, tracer, run = sched.Cilk, 1, nil, (*core.Runtime).RunSerial
	}
	w, lease := workloads.Checkout(spec, numaAware(pol), opt.FreshInputs)
	arena := getArena()
	completed, verified := false, false
	defer func() {
		// A run that never completed its simulation quarantines its arena
		// (mid-unwind engine state is suspect); a completed run returns
		// it, even if verification then failed. The workload instance is
		// stricter: it goes back to the pool only after the whole run —
		// verification included — succeeded.
		if completed {
			putArena(arena)
		}
		if verified {
			lease.Release()
		} else {
			lease.Discard()
		}
	}()
	rt := newRuntime(opt.Topology, workers, pol, opt.Seed, tracer, arena, interruptFor(rctx))
	w.Prepare(rt)
	rep := run(rt, faultinject.Instrument(plan, w.Root()))
	completed = true
	if opt.Verify {
		if err := w.Verify(); err != nil {
			return nil, verifyError(key, err)
		}
	}
	if plan != nil && plan.Kind == faultinject.FailVerify {
		return nil, verifyError(key, errors.New("injected verification failure"))
	}
	verified = true
	return rep, nil
}

// verifyError types a verification mismatch as the deterministic,
// non-retryable failure it is.
func verifyError(key journal.Key, err error) *RunError {
	where := "serial"
	if !key.Serial {
		where = fmt.Sprintf("on %s at P=%d", key.Policy, key.P)
	}
	return &RunError{Key: key, Kind: KindVerify, Err: fmt.Errorf("harness: %s %s: %w", key.Bench, where, err)}
}

// RunSerial measures TS for a spec (serial elision, baseline placement).
//
// TS is memoized per distinct input: a serial run never builds the
// scheduling engine, so its report depends only on the input data and the
// machine — not on the scheduler seed, P, or policy — and every cell of a
// measurement grid shares one serial reference. The memo lives in the
// input's shared cache (single-flight, so parallel -jobs workers never race
// to compute the same reference) and FreshInputs opts out.
func RunSerial(ctx context.Context, spec Spec, opt Options) (*core.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.fill()
	key := KeyFor(spec, nil, opt, true)
	// Containment and retry sit INSIDE the memoization compute: a serial
	// reference that panics or times out surfaces as an error, and RefCache
	// never caches errors, so the single-flight entry is not poisoned — the
	// next caller recomputes (pinned by TestRefCacheNotPoisonedByPanic).
	attempt := func() (*core.Report, error) {
		return attemptRun(ctx, key, opt, func(rctx context.Context) (*core.Report, error) {
			return runAttempt(rctx, spec, nil, opt, key, nil)
		})
	}
	cache := workloads.SharedCache(spec)
	if opt.FreshInputs || cache == nil {
		return attempt()
	}
	// The memo key pins everything the serial report depends on: the
	// machine (its Key hashes the distance matrix too) and whether this
	// call must have verified. Geometry and latency are harness constants.
	memoKey := fmt.Sprintf("harness.ts|verify=%t|%s", opt.Verify, opt.Topology.Key())
	v, err := cache.Do(memoKey, func() (any, error) { return attempt() })
	if err != nil {
		return nil, err
	}
	return v.(*core.Report), nil
}

// MeasureAll measures every spec. Every (spec, policy, P, seed) run across
// all specs is one entry of the grid executor (ExecuteGrid); results are
// folded in spec/platform/seed order, so the rows are identical for every
// Jobs value. Cancelling ctx skips every simulation not yet started and
// returns the context's error; completed runs already streamed through
// opt.OnRun remain valid.
//
// Failure containment: a spec with a failed run (panic, deadline after
// retries, verification mismatch) yields an error row — identity fields
// plus Row.Err, zero measurements — while every other spec's rows are
// unaffected; MeasureAll itself returns an error only for grid-level
// failures (cancellation, cache I/O). With opt.Cache set each completed
// run is durably recorded as it finishes, and runs the cache already holds
// are filled from it instead of simulating.
func MeasureAll(ctx context.Context, specs []Spec, opt Options) ([]results.Row, error) {
	opt = opt.fill()
	// Per spec: TS, then T1 and one TP run per seed on the baseline column
	// and on the policy column.
	per := 3 + 2*opt.Seeds
	runs := make([]Run, 0, len(specs)*per)
	for _, spec := range specs {
		runs = append(runs, Run{Spec: spec, Opt: opt})
		// Column position, not policy identity: with Policy: sched.Cilk the
		// comparison degenerates to cilk-vs-cilk, and both columns must
		// still be populated.
		for col, pol := range []sched.Policy{sched.Cilk, opt.Policy} {
			o := opt
			o.P = 1
			runs = append(runs, Run{spec, pol, o, col == 0})
			for s := 0; s < opt.Seeds; s++ {
				o := opt
				o.Seed = opt.Seed + int64(s)
				runs = append(runs, Run{spec, pol, o, col == 0})
			}
		}
	}
	fails := make([]*RunError, len(runs))
	res, err := gather(ctx, opt, opt.Cache, runs, fails)
	if err != nil {
		return nil, err
	}
	column := func(rs []journal.Result) results.PlatformResult {
		tp := mean(rs[1:])
		return results.PlatformResult{T1: rs[0].Time, TP: tp.Time, WP: tp.Work, SP: tp.Sched, IP: tp.Idle}
	}
	rows := make([]results.Row, len(specs))
	for i, spec := range specs {
		rows[i] = results.Row{Name: spec.Name, Input: spec.Input, P: opt.P}
		k := i * per
		if j := slices.IndexFunc(fails[k:k+per], func(re *RunError) bool { return re != nil }); j >= 0 {
			rows[i].Err = fails[k+j].RowError()
			continue
		}
		rows[i].TS = res[k].Time
		rows[i].Cilk = column(res[k+1 : k+2+opt.Seeds])
		rows[i].NUMAWS = column(res[k+2+opt.Seeds : k+per])
	}
	return rows, nil
}

// Fig9Points is the paper's Fig. 9 x-axis.
var Fig9Points = []int{1, 8, 16, 24, 32}

// MeasureScalability produces the Fig. 9 series: opt.Policy's TP over the
// worker counts, tight socket packing (the Pack default). It is the
// single-machine case of MeasureTopologies, which fans every (spec, point,
// seed) run out to opt.Jobs host goroutines and aggregates in canonical
// order. nil points derive the axis from the machine (SweepPoints), which
// on the paper's topology is exactly Fig9Points.
func MeasureScalability(ctx context.Context, specs []Spec, opt Options, points []int) ([]results.Series, error) {
	opt = opt.fill()
	var curve []Spec
	for _, spec := range specs {
		if spec.Fig9Name != "" {
			curve = append(curve, spec)
		}
	}
	machine := Machine{Name: "machine", Top: opt.Topology}
	sweeps, err := MeasureTopologies(ctx, curve, []Machine{machine}, opt, points)
	if err != nil {
		return nil, err
	}
	out := make([]results.Series, len(curve))
	for i, spec := range curve {
		out[i] = results.Series{Name: spec.Fig9Name, P: sweeps[i].P, TP: sweeps[i].TP}
	}
	return out, nil
}

// RunTraced is RunOne with an execution timeline attached: it returns the
// run report plus the recorded per-worker trace (see internal/trace). It
// shares RunOne's containment, per-attempt deadline (opt.RunTimeout) and
// retry loop (opt.Retries). Each attempt records into a fresh timeline and
// the succeeding attempt's is returned, so a retried run never splices two
// attempts' traces.
func RunTraced(ctx context.Context, spec Spec, pol sched.Policy, opt Options) (*core.Report, *trace.Timeline, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	opt = opt.fill()
	key := KeyFor(spec, pol, opt, false)
	var tl *trace.Timeline
	rep, err := attemptRun(ctx, key, opt, func(rctx context.Context) (*core.Report, error) {
		tl = trace.New(opt.P)
		return runAttempt(rctx, spec, pol, opt, key, tl)
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, tl, nil
}
