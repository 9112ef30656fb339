package main

// The traced run's instruments. Run tuples are re-executed exactly as the
// harness executes them, through public calls only: workloads.Checkout,
// core.NewRuntime with the harness configuration, Workload.Prepare,
// Runtime.Run or RunSerial, Workload.Verify. The root task is wrapped in a
// core.Context decorator that times the cache-model calls and the strand
// segments between scheduling calls. Nothing inside the repository is
// instrumented; every span is recorded here, around calls into a layer.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// tuple is one run an untraced repetition completed: what re-executing it
// takes, plus the virtual cycles it measured.
type tuple struct {
	Bench  string
	Scale  workloads.Scale
	Topo   string // topology preset or SOCKETSxCORES shape
	Policy string // "serial" for the serial elision
	P      int
	Seed   int64
	Time   int64 // the untraced run's Report.Time
}

func (t tuple) serial() bool { return t.Policy == "serial" }

func (t tuple) String() string {
	return fmt.Sprintf("%s/%s/P=%d/seed=%d on %s", t.Bench, t.Policy, t.P, t.Seed, t.Topo)
}

// uniqueTuples drops repeated tuples (the paper pipeline measures the
// Fig. 3 subset twice), failing when two runs of one tuple disagree.
func uniqueTuples(ts []tuple) ([]tuple, error) {
	seen := map[tuple]int64{}
	var out []tuple
	for _, t := range ts {
		k := t
		k.Time = 0
		if prev, ok := seen[k]; ok {
			if prev != t.Time {
				return nil, fmt.Errorf("%s: two untraced runs measured %d and %d cycles", t, prev, t.Time)
			}
			continue
		}
		seen[k] = t.Time
		out = append(out, t)
	}
	return out, nil
}

// executor re-executes tuples, reusing one core.Arena across them as the
// harness's arena pool does.
type executor struct {
	arena *core.Arena
	specs map[workloads.Scale]map[string]workloads.Spec
}

func newExecutor() *executor {
	return &executor{arena: core.NewArena(), specs: map[workloads.Scale]map[string]workloads.Spec{}}
}

// resolve finds a tuple's registered spec, machine and policy.
func (x *executor) resolve(t tuple) (workloads.Spec, *topology.Topology, sched.Policy, error) {
	byName, ok := x.specs[t.Scale]
	if !ok {
		byName = map[string]workloads.Spec{}
		for _, s := range workloads.Specs(t.Scale) {
			byName[s.Name] = s
		}
		x.specs[t.Scale] = byName
	}
	spec, ok := byName[t.Bench]
	if !ok {
		return workloads.Spec{}, nil, nil, fmt.Errorf("no registered benchmark %q", t.Bench)
	}
	top, err := topology.Parse(t.Topo)
	if err != nil {
		return workloads.Spec{}, nil, nil, err
	}
	if t.serial() {
		return spec, top, sched.Cilk, nil
	}
	pol, err := sched.Lookup(t.Policy)
	return spec, top, pol, err
}

// cost is one re-executed tuple's host time by layer.
type cost struct {
	checkout, runtime, prepare, run, verify time.Duration
	strand, cache                           time.Duration // decorator totals inside run
	calls, resumes                          int64
	report                                  *core.Report
}

// run re-executes one tuple, timing each layer boundary, and checks that
// it measures the untraced run's cycles.
func (x *executor) run(t tuple, r *recorder) (cost, error) {
	var c cost
	spec, top, pol, err := x.resolve(t)
	if err != nil {
		return c, err
	}
	aware := !t.serial() && (pol.Biased() || pol.Pushes())
	workers := t.P
	if t.serial() {
		workers = 1
	}
	root := r.begin("tuple", -1, false)
	r.desc[root] = t.String()

	sp := r.begin("workloads.checkout", root, false)
	w, lease := workloads.Checkout(spec, aware, false)
	c.checkout = r.end(sp)

	sp = r.begin("core.runtime", root, false)
	rt := core.NewRuntime(core.Config{
		Sched:    sched.Config{Topology: top, Workers: workers, Policy: pol, Seed: t.Seed},
		Geometry: cache.DefaultGeometry(),
		Latency:  cache.DefaultLatency(),
		Arena:    x.arena,
	})
	c.runtime = r.end(sp)

	sp = r.begin("workloads.prepare", root, false)
	w.Prepare(rt)
	c.prepare = r.end(sp)

	task := w.Root()
	if r.decorate {
		task = r.wrap(task)
	}
	r.startRun(r.begin("core.run", root, false))
	if t.serial() {
		c.report = rt.RunSerial(task)
	} else {
		c.report = rt.Run(task)
	}
	c.run = r.end(r.runSpan)
	c.strand, c.cache, c.calls, c.resumes = r.strand, r.cache, r.calls, r.resumes

	sp = r.begin("workloads.verify", root, false)
	verr := w.Verify()
	c.verify = r.end(sp)
	r.end(root)
	if verr != nil {
		lease.Discard()
		return c, fmt.Errorf("%s: verify: %w", t, verr)
	}
	lease.Release()
	if c.report.Time != t.Time {
		return c, fmt.Errorf("%s: re-executed run measured %d cycles, the untraced run %d", t, c.report.Time, t.Time)
	}
	return c, nil
}

// span is one recorded layer boundary.
type span struct {
	name       string
	tuple      int // index of the tuple span it belongs to
	parent     int // -1 for a tuple span
	start, end int64
}

// maxFineSpans caps the strand and cache spans kept for the trace file; the
// layer totals count every call regardless.
const maxFineSpans = 100_000

// recorder keeps a traced pass's spans in memory and its layer totals.
// Strands run one at a time (the runtime hands control between the engine
// and exactly one task goroutine over channels), so it needs no lock.
type recorder struct {
	decorate bool // wrap root tasks in the tracing decorator
	t0       time.Time
	spans    []span
	desc     map[int]string // tuple span -> tuple description
	fine     int
	dropped  int

	// Totals of the run in progress.
	runSpan        int
	strand, cache  time.Duration
	calls, resumes int64
}

func newRecorder(decorate bool) *recorder {
	return &recorder{decorate: decorate, t0: time.Now(), desc: map[int]string{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id, or -1 when a fine-grained span
// falls beyond the cap.
func (r *recorder) begin(name string, parent int, fine bool) int {
	if fine {
		if r.fine >= maxFineSpans {
			r.dropped++
			return -1
		}
		r.fine++
	}
	id := len(r.spans)
	tup := id
	if parent >= 0 {
		tup = r.spans[parent].tuple
	}
	now := r.now()
	r.spans = append(r.spans, span{name: name, tuple: tup, parent: parent, start: now, end: now})
	return id
}

// end closes a span and returns its duration (zero for a dropped span).
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.end = r.now()
	return time.Duration(s.end - s.start)
}

// startRun resets the run totals for the tuple about to run.
func (r *recorder) startRun(id int) {
	r.runSpan = id
	r.strand, r.cache, r.calls, r.resumes = 0, 0, 0, 0
}

// wrap decorates a task: every context it and its descendants see is a
// tracedCtx.
func (r *recorder) wrap(t core.Task) core.Task {
	return func(inner core.Context) {
		c := &tracedCtx{Context: inner, rec: r}
		c.resume()
		t(c)
		if c.spawned {
			// The runtime syncs a function that spawned before it returns;
			// syncing here instead makes that resume visible. The yield is
			// identical, so the simulation is unchanged.
			c.Sync()
		}
		c.suspend()
	}
}

// tracedCtx is the tracing core.Context decorator. A strand segment runs
// from a resume to the next Spawn, SpawnAt, Sync or Call (or the task's
// end); cache-model calls inside it are timed on their own.
type tracedCtx struct {
	core.Context
	rec     *recorder
	seg     int   // open strand span, or -1
	start   int64 // segment start
	spawned bool  // spawned since the last sync
}

func (c *tracedCtx) resume() {
	c.rec.resumes++
	c.seg = c.rec.begin("strand", c.rec.runSpan, true)
	c.start = c.rec.now()
}

func (c *tracedCtx) suspend() {
	c.rec.strand += time.Duration(c.rec.now() - c.start)
	c.rec.end(c.seg)
}

func (c *tracedCtx) Spawn(t core.Task) {
	w := c.rec.wrap(t)
	c.suspend()
	c.Context.Spawn(w)
	c.spawned = true
	c.resume()
}

func (c *tracedCtx) SpawnAt(place int, t core.Task) {
	w := c.rec.wrap(t)
	c.suspend()
	c.Context.SpawnAt(place, w)
	c.spawned = true
	c.resume()
}

func (c *tracedCtx) Sync() {
	c.suspend()
	c.Context.Sync()
	c.spawned = false
	c.resume()
}

func (c *tracedCtx) Call(t core.Task) {
	w := c.rec.wrap(t)
	c.suspend()
	c.Context.Call(w)
	c.resume()
}

// enterCache opens a timed cache-model call.
func (c *tracedCtx) enterCache() (id int, start int64) {
	return c.rec.begin("cache", c.seg, true), c.rec.now()
}

// leaveCache closes it, charging the cache layer.
func (c *tracedCtx) leaveCache(id int, start int64) {
	c.rec.cache += time.Duration(c.rec.now() - start)
	c.rec.calls++
	c.rec.end(id)
}

func (c *tracedCtx) Read(r *memory.Region, off, n int64) {
	id, t0 := c.enterCache()
	c.Context.Read(r, off, n)
	c.leaveCache(id, t0)
}

func (c *tracedCtx) Write(r *memory.Region, off, n int64) {
	id, t0 := c.enterCache()
	c.Context.Write(r, off, n)
	c.leaveCache(id, t0)
}

func (c *tracedCtx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	id, t0 := c.enterCache()
	c.Context.ReadStrided(r, off, stride, elem, count)
	c.leaveCache(id, t0)
}

func (c *tracedCtx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	id, t0 := c.enterCache()
	c.Context.WriteStrided(r, off, stride, elem, count)
	c.leaveCache(id, t0)
}

// ledger accumulates re-executed tuples' costs. Serial-elision tuples are
// kept apart: they have no engine, so their time is the harness's serial
// reference cost.
type ledger struct {
	allRun                    time.Duration // every tuple's run
	checkout, prepare, verify time.Duration // parallel tuples
	run, strand, cache        time.Duration // parallel tuples
	calls, resumes, events    int64
	serial                    time.Duration // serial tuples, end to end
	remote, accesses          int64
	steals, stealAttempts     int64
	pushes, pushAttempts      int64
}

func (l *ledger) add(t tuple, c cost) {
	l.allRun += c.run
	if t.serial() {
		l.serial += c.checkout + c.runtime + c.prepare + c.run + c.verify
		return
	}
	l.checkout += c.checkout + c.runtime
	l.prepare += c.prepare
	l.verify += c.verify
	l.run += c.run
	l.strand += c.strand
	l.cache += c.cache
	l.calls += c.calls
	l.resumes += c.resumes
	if rep := c.report; rep != nil {
		l.remote += rep.Cache.Remote()
		l.accesses += rep.Cache.Total()
		if st := rep.Sched; st != nil {
			l.events += st.Events
			l.steals += st.Steals
			l.stealAttempts += st.StealAttempts
			l.pushes += st.Pushes
			l.pushAttempts += st.PushAttempts
		}
	}
}

// attribute splits the traced parallel runs' wall time into the four
// layers a strand passes through and writes the per-layer metrics. Inside
// core.Run, a layer's self time is its span minus its children: cache is
// the timed cache-model calls, compute is the strand segments minus those,
// and the rest of Run is the engine plus the strand handoff, split between
// them by the rungs' per-event and per-resume rates. The four add up to
// Run by construction; what can fail is a negative share, which means the
// decorator's timings do not nest inside Run's.
func (l *ledger) attribute(out map[string]float64, rg rungs) error {
	residual := l.run - l.strand
	engine := time.Duration(0)
	if w := float64(l.events)*rg.nsPerEvent + float64(l.resumes)*rg.nsPerResume; w > 0 {
		engine = time.Duration(float64(residual) * float64(l.events) * rg.nsPerEvent / w)
	}
	handoff := residual - engine
	compute := l.strand - l.cache
	out["trace.run_s"] = l.allRun.Seconds()
	out["workloads.checkout_s"] = l.checkout.Seconds()
	out["workloads.prepare_s"] = l.prepare.Seconds()
	out["workloads.verify_s"] = l.verify.Seconds()
	out["workloads.compute_s"] = compute.Seconds()
	out["harness.serial_s"] = l.serial.Seconds()
	out["cache.access_s"] = l.cache.Seconds()
	out["cache.calls"] = float64(l.calls)
	out["cache.ns_per_call"] = ratio(float64(l.cache.Nanoseconds()), float64(l.calls))
	out["core.resumes"] = float64(l.resumes)
	out["core.handoff_s"] = handoff.Seconds()
	out["sched.events"] = float64(l.events)
	out["sched.engine_s"] = engine.Seconds()
	out["cache.remote_frac"] = ratio(float64(l.remote), float64(l.accesses))
	out["sched.steal_success_frac"] = ratio(float64(l.steals), float64(l.stealAttempts))
	out["sched.push_success_frac"] = ratio(float64(l.pushes), float64(l.pushAttempts))
	for _, part := range []struct {
		name string
		d    time.Duration
	}{{"cache", l.cache}, {"compute", compute}, {"engine", engine}, {"handoff", handoff}} {
		if part.d < 0 {
			return fmt.Errorf("layer attribution: %s self time %v is negative (traced Run %v, strands %v)", part.name, part.d, l.run, l.strand)
		}
	}
	return nil
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open. Times are microseconds since the pass began.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// Spans were appended as they began, so they are already in start order.
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for id, s := range r.spans {
		if id > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"span": id, "parent": s.parent, "tuple": s.tuple}
		if d, ok := r.desc[id]; ok {
			args["run"] = d
		}
		if err := enc.Encode(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
