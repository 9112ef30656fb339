// Package numaws is the public API of the NUMA-WS simulator: a library
// facade over the paper-reproduction engine that lets any Go program embed
// the simulator, measure the paper's benchmarks, sweep machine topologies,
// stream results from long runs, and run its own fork-join computations on
// the simulated NUMA machine.
//
// This package is the one supported way to consume the simulator. Its
// exported surface deliberately names no type from the simulation engine
// underneath (the layering contract in DESIGN.md); everything a caller
// needs — machines, policies, benchmarks, measurements, renderers and
// exporters — is expressed in this package's own types, so the engine can
// keep refactoring without breaking embedders.
//
// A Session is built once from functional options and then queried:
//
//	s, err := numaws.New(
//		numaws.WithTopology("2x16"),
//		numaws.WithPolicy("numaws"),
//		numaws.WithScale(numaws.ScaleSmall),
//	)
//	if err != nil { ... }
//	row, err := s.Measure(ctx, "heat")
//	fmt.Printf("speedup %.2fx\n", row.NUMAWS.Scalability())
//
// Every measurement takes a context.Context and stops promptly when it is
// cancelled (at per-simulation granularity), returning ctx.Err(). Long
// sweeps can stream each completed simulation through Session.Each instead
// of waiting for the aggregated rows.
package numaws

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/topology"
)

// Scale selects the benchmark input sizes.
type Scale int

// Available scales.
const (
	// ScaleFull is the paper's EXPERIMENTS.md configuration; a full
	// measurement sweep takes minutes to hours.
	ScaleFull Scale = iota
	// ScaleSmall shrinks every input so a full sweep runs in seconds;
	// used by tests, examples and quick exploration.
	ScaleSmall
)

// The facade's Scale and the engine's have inverted zero values (the
// facade defaults to ScaleFull, the engine to ScaleSmall), so every
// boundary crossing must convert through this one helper pair — a
// re-derived ad-hoc conversion that forgets the inversion would silently
// run full-scale inputs where small was asked, or vice versa.

// engineScale converts a facade Scale for the harness/workloads layer.
func engineScale(s Scale) harness.Scale {
	if s == ScaleSmall {
		return harness.ScaleSmall
	}
	return harness.ScaleFull
}

// facadeScale converts an engine scale to the facade's.
func facadeScale(hs harness.Scale) Scale {
	if hs == harness.ScaleSmall {
		return ScaleSmall
	}
	return ScaleFull
}

// config collects the option values; New validates it as a whole.
type config struct {
	topology string
	policy   string
	scale    Scale
	workers  int
	seed     int64
	seeds    int
	jobs     int
	verify   bool
	benches  []string
	timeout  time.Duration
	retries  int
	journal  string
	resume   bool
}

// Option configures New.
type Option struct {
	apply func(*config) error
}

func option(f func(*config) error) Option { return Option{apply: f} }

// WithTopology selects the simulated machine: a preset name (see
// Topologies) or a generic "SOCKETSxCORES" ring shape such as "2x16".
// The default is "paper-4x8", the paper's 4-socket x 8-core Xeon E5-4620.
// Unknown names surface as an error from New naming the accepted forms.
func WithTopology(spec string) Option {
	return option(func(c *config) error {
		if spec == "" {
			return fmt.Errorf("WithTopology: empty topology spec")
		}
		c.topology = spec
		return nil
	})
}

// WithPolicy selects the scheduling policy by registry name (see
// Policies). The default is "numaws", the paper's scheduler; "cilk" is
// classic work stealing. The policy drives Run, the sweeps, and the
// NUMA-aware column of the comparison tables (the baseline column is
// always "cilk"). Unknown names surface as an error from New listing the
// registered names.
func WithPolicy(name string) Option {
	return option(func(c *config) error {
		if name == "" {
			return fmt.Errorf("WithPolicy: empty policy name")
		}
		c.policy = name
		return nil
	})
}

// WithScale selects benchmark input sizes; the default is ScaleFull.
func WithScale(s Scale) Option {
	return option(func(c *config) error {
		if s != ScaleFull && s != ScaleSmall {
			return fmt.Errorf("WithScale: unknown scale %d", int(s))
		}
		c.scale = s
		return nil
	})
}

// WithWorkers sets the simulated worker count P of parallel runs and the
// TP column of the tables. 0 (the default) means the whole machine — every
// core of the selected topology. New rejects counts the machine cannot
// place.
func WithWorkers(p int) Option {
	return option(func(c *config) error {
		if p < 0 {
			return fmt.Errorf("WithWorkers: negative worker count %d", p)
		}
		c.workers = p
		return nil
	})
}

// WithSeed sets the base scheduler seed (default 1). Runs are
// deterministic in the seed: the same Session configuration replays
// byte-identical measurements. Zero is reserved as "the default" by the
// engine, so New rejects it rather than silently remapping.
func WithSeed(seed int64) Option {
	return option(func(c *config) error {
		if seed == 0 {
			return fmt.Errorf("WithSeed: seed must be non-zero (the default seed is 1)")
		}
		c.seed = seed
		return nil
	})
}

// WithSeeds averages each parallel measurement over n scheduler seeds
// (seed, seed+1, ...), echoing the paper's "each data point is the average
// of 10 runs". The default is 1.
func WithSeeds(n int) Option {
	return option(func(c *config) error {
		if n < 1 {
			return fmt.Errorf("WithSeeds: need at least one seed, got %d", n)
		}
		c.seeds = n
		return nil
	})
}

// WithJobs bounds how many independent simulations run concurrently on
// host goroutines. Jobs changes wall-clock time only — measurements are
// aggregated in canonical order and are identical for every value. The
// default is one job per available CPU.
func WithJobs(n int) Option {
	return option(func(c *config) error {
		if n < 1 {
			return fmt.Errorf("WithJobs: need at least one job, got %d", n)
		}
		c.jobs = n
		return nil
	})
}

// WithVerify controls whether every run's computed result is checked
// against a reference (default true). Verification costs host time, never
// simulated cycles.
func WithVerify(v bool) Option {
	return option(func(c *config) error {
		c.verify = v
		return nil
	})
}

// WithBenchmarks restricts the session to the named benchmarks (in the
// given order) instead of the full registered suite — the paper's nine,
// the Cilk-suite additions, and anything added through RegisterBenchmark
// before the session was built. New rejects unknown names with an error
// listing the available ones.
func WithBenchmarks(names ...string) Option {
	return option(func(c *config) error {
		if len(names) == 0 {
			return fmt.Errorf("WithBenchmarks: no names given")
		}
		c.benches = append([]string(nil), names...)
		return nil
	})
}

// WithRunTimeout bounds each individual simulation of the session's
// measurements: a run exceeding d is interrupted and classified as a
// transient failure, which surfaces as the benchmark's error row (Row.Err)
// unless a retry budget (WithRetry) re-runs it successfully. The default,
// 0, means no deadline — the fully deterministic configuration, since any
// deadline lets a run observe host load.
func WithRunTimeout(d time.Duration) Option {
	return option(func(c *config) error {
		if d < 0 {
			return fmt.Errorf("WithRunTimeout: negative timeout %v", d)
		}
		c.timeout = d
		return nil
	})
}

// WithRetry re-runs a transiently failed simulation (deadline interrupt;
// never a panic or verification mismatch, which are deterministic) up to n
// additional attempts. The budget is an attempt count, not a backoff: each
// attempt checks out fresh resources, so a retried success is
// byte-identical to a first-try success. The default is 0.
func WithRetry(n int) Option {
	return option(func(c *config) error {
		if n < 0 {
			return fmt.Errorf("WithRetry: negative retry budget %d", n)
		}
		c.retries = n
		return nil
	})
}

// WithJournal makes the session's grid measurements crash-safe: every
// completed (benchmark, policy, P, seed) simulation of Measure,
// MeasureAll, Each, Scalability, Sweep and Tournament is durably appended
// to the JSONL journal at path as it finishes. The journal is a result
// store in the format of NewServer's store file, and it replaces the
// session's in-memory memo: a run whose key it already holds, such as the
// second column of a "cilk" session's comparison or a Scalability point
// an earlier MeasureAll measured, is filled from the store instead of
// simulated, so the file holds one line per key (two concurrent first
// runs of one key may both append; replay keeps one).
// Combine with WithResume to replay a journal written by an earlier
// (killed) process; without it, New truncates path and starts fresh.
// Sessions holding a journal should be Closed.
func WithJournal(path string) Option {
	return option(func(c *config) error {
		if path == "" {
			return fmt.Errorf("WithJournal: empty journal path")
		}
		c.journal = path
		return nil
	})
}

// WithResume replays the WithJournal file's completed runs instead of
// re-simulating them: runs whose full key is journaled are filled from
// the store (streamed through Each with Run.Replayed set), only the
// missing tuples simulate, and new completions extend the same file. A
// torn or corrupt tail is truncated from the file before the first
// append and counted by ReplayStats. Because every simulation is
// deterministic, a resumed grid's rows are identical to an uninterrupted
// run's. Requires WithJournal; a missing journal file is an empty
// journal, not an error.
func WithResume() Option {
	return option(func(c *config) error {
		c.resume = true
		return nil
	})
}

// Session is a configured simulator instance: one machine topology, one
// scheduling policy, one benchmark suite. Its configuration is immutable
// after New, and it is safe for concurrent use; every method that
// simulates takes a context.Context and honors its cancellation at
// per-simulation granularity. The suite is captured at New: benchmarks
// registered later (RegisterBenchmark) appear in sessions built
// afterwards, never in existing ones.
//
// A session holds one result cache — its WithJournal file, or an
// in-memory memo without one — that every grid protocol (Measure,
// MeasureAll, Each, Scalability, Sweep, Tournament) executes through. A
// run is a pure function of its (benchmark, policy, P, seed, machine)
// tuple, so the session simulates each distinct tuple at most once and
// answers repeats from the cache (Run.Replayed); the cache grows with the
// distinct tuples the session ran. Failed and cancelled runs are never
// cached. Run, RunSerial, DAGs and Timeline always simulate.
type Session struct {
	top    *topology.Topology
	policy sched.Policy
	specs  []harness.Spec
	cfg    config
	store  *store.Store        // the WithJournal file; nil without one
	cache  harness.ResultCache // store when set, otherwise a *harness.Memo
}

// New builds a Session from the given options, validating them as a set:
// unknown topology or policy names, out-of-range worker counts and unknown
// benchmark names are reported here, before any simulation runs.
func New(opts ...Option) (*Session, error) {
	c := config{
		topology: "paper-4x8",
		policy:   "numaws",
		scale:    ScaleFull,
		seed:     1,
		seeds:    1,
		jobs:     exec.DefaultJobs(),
		verify:   true,
	}
	for _, o := range opts {
		if o.apply == nil {
			return nil, fmt.Errorf("numaws: zero Option value")
		}
		if err := o.apply(&c); err != nil {
			return nil, fmt.Errorf("numaws: %w", err)
		}
	}
	top, err := topology.Parse(c.topology)
	if err != nil {
		return nil, fmt.Errorf("numaws: %w", err)
	}
	pol, err := sched.Lookup(c.policy)
	if err != nil {
		return nil, fmt.Errorf("numaws: %w", err)
	}
	if c.workers == 0 {
		c.workers = top.Cores()
	}
	if c.workers > top.Cores() {
		return nil, fmt.Errorf("numaws: %d workers out of range [1,%d] for topology %s",
			c.workers, top.Cores(), c.topology)
	}
	all := harness.Specs(engineScale(c.scale))
	specs := all
	if len(c.benches) > 0 {
		specs, err = selectSpecs(all, c.benches)
		if err != nil {
			return nil, fmt.Errorf("numaws: %w", err)
		}
	}
	s := &Session{top: top, policy: pol, specs: specs, cfg: c}
	if c.resume && c.journal == "" {
		return nil, fmt.Errorf("numaws: WithResume requires WithJournal")
	}
	if c.journal != "" {
		if !c.resume {
			if err := os.WriteFile(c.journal, nil, 0o644); err != nil {
				return nil, fmt.Errorf("numaws: %w", err)
			}
		}
		if s.store, err = store.Open(c.journal); err != nil {
			return nil, fmt.Errorf("numaws: %w", err)
		}
		s.cache = s.store
	} else {
		s.cache = &harness.Memo{}
	}
	return s, nil
}

// Close releases the session's journal file, if any. Safe to call on
// sessions built without WithJournal and safe to call twice; measurements
// after Close fail on their first run the journal does not hold.
func (s *Session) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// ReplayStats reports what WithResume found in the journal: how many
// completed runs it replayed, and how many trailing lines it discarded as
// torn or corrupt (everything from the first unreadable record on — New
// truncates that tail from the file and a resume re-measures it, so
// callers surface the count). Both are zero for sessions built without
// WithResume.
func (s *Session) ReplayStats() (replayed, skipped int) {
	if s.store == nil {
		return 0, 0
	}
	c := s.store.Counters()
	return c.Records, c.Skipped
}

// selectSpecs resolves benchmark names against the suite, preserving the
// requested order and rejecting unknown or duplicate names.
func selectSpecs(all []harness.Spec, names []string) ([]harness.Spec, error) {
	byName := make(map[string]harness.Spec, len(all))
	known := make([]string, 0, len(all))
	for _, s := range all {
		byName[s.Name] = s
		known = append(known, s.Name)
	}
	seen := make(map[string]bool, len(names))
	out := make([]harness.Spec, 0, len(names))
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

// options assembles the harness options for one measurement call.
func (s *Session) options() harness.Options {
	return harness.Options{
		Topology:   s.top,
		P:          s.cfg.workers,
		Seed:       s.cfg.seed,
		Seeds:      s.cfg.seeds,
		Verify:     s.cfg.verify,
		Jobs:       s.cfg.jobs,
		Policy:     s.policy,
		RunTimeout: s.cfg.timeout,
		Retries:    s.cfg.retries,
		Cache:      s.cache,
	}
}

// Machine describes the session's simulated machine.
type Machine struct {
	Name    string // the topology spec the session was built with
	Sockets int
	Cores   int // total cores across all sockets
	// Description is the machine rendered the way the paper's Fig. 1
	// presents it: sockets, per-socket resources, and the node distance
	// matrix.
	Description string
}

// Machine reports the session's simulated machine.
func (s *Session) Machine() Machine {
	return Machine{
		Name:        s.cfg.topology,
		Sockets:     s.top.Sockets(),
		Cores:       s.top.Cores(),
		Description: s.top.String(),
	}
}

// Policy reports the session's scheduling policy name.
func (s *Session) Policy() string { return s.policy.Name() }

// Workers reports the session's resolved simulated worker count (the whole
// machine unless WithWorkers said otherwise).
func (s *Session) Workers() int { return s.cfg.workers }

// Benchmark describes one benchmark of the session's suite.
type Benchmark struct {
	Name  string
	Input string // human-readable "input size / base case"
	// Fig3 marks the seven benchmarks of the paper's Fig. 3.
	Fig3 bool
	// Curve is the benchmark's series name in the paper's Fig. 9
	// scalability plot ("" if it has no curve).
	Curve string
}

// Benchmarks lists the session's benchmark suite in measurement order:
// the registered suite in name order, or the WithBenchmarks selection in
// its given order.
func (s *Session) Benchmarks() []Benchmark {
	out := make([]Benchmark, len(s.specs))
	for i, sp := range s.specs {
		out[i] = Benchmark{Name: sp.Name, Input: sp.Input, Fig3: sp.InFig3, Curve: sp.Fig9Name}
	}
	return out
}

// Topologies lists the built-in machine presets accepted by WithTopology
// (generic "SOCKETSxCORES" shapes are accepted too).
func Topologies() []string { return topology.Presets() }

// Policies lists the registered scheduling policy names accepted by
// WithPolicy, sorted.
func Policies() []string { return sched.Names() }
