package main

// The workload runner: repeated cold set-up, the timed phase sampled in
// windows, and the traced run's layer ledger.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/workloads"
)

// config is one benchmark invocation's settings.
type config struct {
	root    string // repository root: goldens live here
	workDir string // stores, child results and trace files
	seed    int64  // base seed, at least 1
	seconds int    // timed phase length
	trace   bool
	setups  int // cold set-up passes; setup_s is their median
	windows int // service timed phase: samples of the per-run metrics
	sizes
}

// sizes are the workload dimensions; the smoke test shrinks them.
type sizes struct {
	spawnScale   workloads.Scale // spawn-tree input scale
	spawnSeeds   int             // spawn-tree seeds per tournament cell
	warmSeeds    int             // service-warm grid: seeds per benchmark
	warmups      int             // service-cold set-up queries
	traceQueries int             // queries in a traced service repetition
	rungN        int             // fib order of the engine and handoff rungs
	rungReps     int             // rung repetitions; the median rate is kept
}

// jobs is both the host simulation jobs and the service's client
// connections: the load is sized for a 2-vCPU host.
const jobs = 2

// benchSizes is the committed load.
var benchSizes = sizes{
	spawnScale:   workloads.ScaleFull,
	spawnSeeds:   4,
	warmSeeds:    50,
	warmups:      50,
	traceQueries: 20,
	rungN:        20,
	rungReps:     7,
}

func newConfig(root string, seed int64, seconds int, trace bool) *config {
	if seed < 1 {
		// The engine reserves scheduler seed 0; fold non-positive seeds onto
		// the positive ones (0 -> 1, -1 -> 2, ...).
		seed = 1 - seed
	}
	return &config{
		root: root, workDir: filepath.Join(root, ".bench_build"),
		seed: seed, seconds: seconds, trace: trace,
		setups: 3, windows: 10, sizes: benchSizes,
	}
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// start performs one cold set-up pass, checking its output, and
	// returns the live instance the timed phase drives.
	start func(ctx context.Context, cfg *config, t *tally) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// timed runs the measured phase until the deadline.
	timed(ctx context.Context, until time.Time, t *tally) (phase, error)
	// rep runs one untraced repetition and reports what it ran.
	rep(ctx context.Context, t *tally) (repInfo, error)
	close() error
}

// phase is a timed phase's samples.
type phase struct {
	samples []sample  // window boundaries
	opMs    []float64 // per-op latency
	ttfbMs  []float64 // service: time to the first streamed row
}

// repInfo describes one untraced repetition for the traced run.
type repInfo struct {
	tuples    []tuple
	wall, cpu time.Duration
	opMs      []float64
	rowsPerOp int    // service: rows streamed per query
	simPerOp  int    // service: runs simulated per query
	store     string // service: the workload's store file
}

// workloadList is every workload, in run order. Each stresses different
// layers, and each layer change has a workload that bypasses it:
//   - paper-grid: the paper's numaws all pipeline; the cache model,
//     workload compute and idle steals dominate;
//   - spawn-tree: a fib and nqueens tournament; tiny strands and no memory
//     traffic, so the handoff and the engine dominate and the cache model
//     makes no calls;
//   - service-cold: never-seen tuples; simulate, fsync the store, stream;
//   - service-warm: a stored grid queried again; store lookups, JSON and
//     HTTP only, nothing simulated.
var workloadList = []workload{
	{"paper-grid", startPaperGrid},
	{"spawn-tree", startSpawnTree},
	{"service-cold", startServiceCold},
	{"service-warm", startServiceWarm},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

// tally counts operations and their failures. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// maxFailures bounds how many failure messages a result keeps.
const maxFailures = 10

// op records one operation; a non-nil err is its failure.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// runWorkload sets w up, measures it, and returns its result: the
// end-to-end metrics, or the per-layer ones when cfg.trace is set.
func runWorkload(ctx context.Context, cfg *config, w workload, log io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	var t tally
	var m map[string]stat
	var err error
	if cfg.trace {
		m, err = traceWorkload(ctx, cfg, w, &t, log)
	} else {
		m, err = measureWorkload(ctx, cfg, w, &t)
	}
	if err != nil {
		return result{}, err
	}
	return result{
		Workload: w.name, Correct: t.failed == 0,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Metrics: m,
	}, nil
}

// measureWorkload is the untraced run: cfg.setups cold set-up passes, the
// last of which stays up for the timed phase.
func measureWorkload(ctx context.Context, cfg *config, w workload, t *tally) (map[string]stat, error) {
	var setups []float64
	var inst instance
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		// Each pass starts as a fresh process would: no pooled inputs, no
		// cached references.
		workloads.FlushPools()
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.start(ctx, cfg, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	ph, err := inst.timed(ctx, time.Now().Add(time.Duration(cfg.seconds)*time.Second), t)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rps, rss []float64
	for i := 1; i < len(ph.samples); i++ {
		a, b := ph.samples[i-1], ph.samples[i]
		rss = append(rss, b.rss)
		if b.runs > a.runs {
			rps = append(rps, float64(b.runs-a.runs)/b.at.Sub(a.at).Seconds())
		}
	}
	if len(rps) == 0 {
		return nil, errors.New("the timed phase completed no runs")
	}
	// CPU and allocation per run are ratios of the phase's totals: a GC
	// cycle lands in one window, and a per-window median would count it in
	// some runs and not others.
	first, last := ph.samples[0], ph.samples[len(ph.samples)-1]
	runs := float64(last.runs - first.runs)
	m := map[string]stat{
		"setup_s":          summarize("s", setups),
		"runs_per_s":       summarize("1/s", rps),
		"op_ms_p50":        summarize("ms", ph.opMs),
		"cpu_ms_per_run":   single("ms", ms(last.cpu-first.cpu)/runs),
		"alloc_kb_per_run": single("KiB", float64(last.alloc-first.alloc)/1024/runs),
		"rss_mb":           summarize("MiB", rss),
		"max_rss_mb":       single("MiB", maxRSSMiB()),
	}
	if len(ph.ttfbMs) > 0 {
		m["ttfb_ms_p50"] = summarize("ms", ph.ttfbMs)
		for name, q := range map[string]float64{"query_ms_p90": 0.90, "query_ms_p99": 0.99} {
			if v, ok := percentile(ph.opMs, q); ok {
				m[name] = stat{Unit: "ms", N: len(ph.opMs), Median: v, P25: v, P75: v}
			}
		}
	}
	return m, nil
}

// sample is the process's cumulative counters at one instant.
type sample struct {
	at    time.Time
	cpu   time.Duration // user + system CPU time
	alloc uint64        // Go heap bytes allocated
	rss   float64       // resident set size, MiB
	runs  int64         // run tuples completed
}

func takeSample(runs int64) sample {
	return sample{at: time.Now(), cpu: cpuTime(), alloc: heapAllocs(), rss: rssMiB(), runs: runs}
}

// rssMiB is the process's current resident set size, from
// /proc/self/statm (Linux); 0 where that is unavailable.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size (Linux reports it in
// KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traceWorkload is the traced run: one cold set-up, one untraced
// repetition, then the repetition's run tuples re-executed through the
// layers' public functions — once plainly and once with the tracing
// decorator — plus the engine and handoff rungs and, for the service
// workloads, the store and execute-through probes.
func traceWorkload(ctx context.Context, cfg *config, w workload, t *tally, log io.Writer) (map[string]stat, error) {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	workloads.FlushPools()
	built0, _, refs0, _ := workloads.PoolCounters()
	inst, err := w.start(ctx, cfg, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	built1, _, refs1, _ := workloads.PoolCounters()
	out["workloads.inputs_built"] = float64(built1 - built0)
	out["workloads.ref_computes"] = float64(refs1 - refs0)

	info, err := inst.rep(ctx, t)
	if err != nil {
		return nil, err
	}
	built2, _, _, _ := workloads.PoolCounters()
	out["workloads.inputs_rebuilt"] = float64(built2 - built1)
	out["exec.utilization"] = info.cpu.Seconds() / (info.wall.Seconds() * float64(jobs))

	rg, err := measureRungs(cfg.seed, cfg.rungN, cfg.rungReps)
	t.op(err)
	out["sched.ns_per_event"] = rg.nsPerEvent
	out["core.handoff_ns_per_resume"] = rg.nsPerResume

	tuples, err := uniqueTuples(info.tuples)
	if err != nil {
		return nil, err
	}
	x := newExecutor()
	plain := newRecorder(false)
	traced := newRecorder(true)
	var plainLed, tracedLed ledger
	for _, tp := range tuples {
		c, err := x.run(tp, plain)
		t.op(err)
		plainLed.add(tp, c)
		c, err = x.run(tp, traced)
		t.op(err)
		tracedLed.add(tp, c)
	}
	t.op(tracedLed.attribute(out, rg))
	out["trace.overhead_frac"] = ratio(tracedLed.allRun.Seconds(), plainLed.allRun.Seconds())
	if info.store != "" {
		t.op(serviceProbes(ctx, cfg, info, tuples, x, out))
	}

	path := filepath.Join(cfg.workDir, "trace-"+w.name+".json")
	if err := traced.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "bench: %s: %d spans (%d fine-grained spans beyond the cap not kept) written to %s\n",
		w.name, len(traced.spans), traced.dropped, path)

	m := map[string]stat{}
	for _, d := range perLayer {
		m[d.name] = single(d.unit, out[d.name])
	}
	return m, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
