package workloads

// The name-keyed workload registry: the third open axis of the experiment
// space, next to the topology preset registry (internal/topology) and the
// scheduling-policy registry (internal/sched). A benchmark registers a
// Builder under its table name; the harness, the public facade and the CLI
// all derive their suites from the registered names instead of a closed
// list, so new benchmarks — in-tree or user-registered through
// pkg/numaws.RegisterBenchmark — flow through every measurement protocol
// and exporter without touching the harness.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scale selects benchmark input sizes.
type Scale int

// Available scales.
const (
	// ScaleSmall runs in seconds; used by tests and -short benches.
	ScaleSmall Scale = iota
	// ScaleFull is the EXPERIMENTS.md configuration.
	ScaleFull
)

// Spec describes one benchmark configuration (one row of the paper's
// tables).
type Spec struct {
	Name  string
	Input string // human-readable "input size / base case" for the table
	// Make builds a fresh workload instance; aware selects the NUMA-aware
	// configuration used for NUMA-WS runs. Instances are single-use and
	// must be deterministic: the same (scale, aware) arguments rebuild an
	// identical computation.
	Make func(aware bool) Workload
	// InFig3 marks benchmarks included in the Fig. 3 normalized-time plot
	// (of the paper's nine, the seven non--z variants).
	InFig3 bool
	// Fig9Name is the series name in Fig. 9 ("" if the benchmark has no
	// curve; the paper plots matmul and strassen only as their -z
	// variants).
	Fig9Name string

	// scale and poolGen are stamped by Specs: the scale the builder ran at
	// and the registry generation it was snapshotted under. Together with
	// Name and Input they are the spec's pool identity (see pool.go).
	// Hand-built Spec literals have poolGen 0 — no identity, never pooled.
	// To wrap a registry spec's Make, build a new literal: an edited copy
	// keeps the identity, and the pool keys on it, not on the builder, so
	// it would hand back instances the original builder constructed.
	scale   Scale
	poolGen uint64
}

// Generation reports the registry generation the spec was stamped under by
// Specs, or 0 for hand-built literals (which have no pool identity). The
// harness's crash-safe journal includes it in every record key: a journal
// written under one registry population never replays into a process whose
// registrations differ, because the generation counter would differ too.
func (s Spec) Generation() uint64 { return s.poolGen }

// SpecScale reports the scale the spec's builder ran at (stamped by Specs;
// the zero ScaleSmall for hand-built literals). Part of the journal key.
func (s Spec) SpecScale() Scale { return s.scale }

// Builder constructs a benchmark's Spec at the given scale. The returned
// Spec's Name must equal the name the Builder was registered under.
type Builder func(Scale) Spec

// registry is the name-keyed benchmark registry. Registration normally
// happens in init functions (this package registers the paper's nine), but
// the mutex makes registration from the facade safe at any time.
var registry = struct {
	sync.RWMutex
	byName map[string]Builder
	// gen counts registry mutations, starting at 1 so a stamped spec's
	// generation is always nonzero. Every Register/Unregister bumps it and
	// flushes the workload pool: specs stamped under an older generation
	// keep working but repool under their own keys, so a name re-registered
	// with a different builder can never be served another builder's
	// pooled instances.
	gen uint64
}{byName: map[string]Builder{}, gen: 1}

// Register adds a benchmark builder under name. It panics on an empty
// name, a nil builder, or a duplicate registration: all are programming
// errors, and silently replacing a benchmark would invalidate every
// measurement taken under the name. Registration is permanent for the
// process — production code never unregisters, so results stay
// attributable to a stable name.
func Register(name string, b Builder) {
	if err := TryRegister(name, b); err != nil {
		panic(err)
	}
}

// TryRegister is Register returning an error instead of panicking; the
// public facade's RegisterBenchmark builds on it so user mistakes surface
// as errors, not crashes.
func TryRegister(name string, b Builder) error {
	if name == "" {
		return fmt.Errorf("workloads: Register: empty benchmark name")
	}
	if b == nil {
		return fmt.Errorf("workloads: Register: benchmark %q has a nil builder", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return fmt.Errorf("workloads: Register: benchmark %q already registered", name)
	}
	registry.byName[name] = b
	registry.gen++
	flushPools()
	return nil
}

// Unregister removes a benchmark by name, reporting whether it was
// registered. Test hook only: production code never unregisters
// (measurements must stay attributable to a stable name); it exists so
// registry and facade tests can clean up registrations they made.
func Unregister(name string) bool {
	registry.Lock()
	defer registry.Unlock()
	_, ok := registry.byName[name]
	delete(registry.byName, name)
	if ok {
		registry.gen++
		flushPools()
	}
	return ok
}

// Lookup resolves a registered benchmark builder by name. Unknown names
// return an error listing every registered name, so callers can surface it
// as a usage error (mirroring unknown topology and policy names) instead
// of panicking.
func Lookup(name string) (Builder, error) {
	registry.RLock()
	b, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the registered benchmark names, sorted, so suites,
// listings and error messages are stable.
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

// Specs builds every registered benchmark's Spec at the given scale, in
// name order — the canonical measurement order of the suite. Names and
// builders are snapshotted under one lock acquisition, so a concurrent
// (test-hook) Unregister cannot leave a name without its builder.
func Specs(s Scale) []Spec {
	registry.RLock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	builders := make([]Builder, len(names))
	for i, name := range names {
		builders[i] = registry.byName[name]
	}
	gen := registry.gen
	registry.RUnlock()
	out := make([]Spec, len(names))
	for i, b := range builders {
		out[i] = b(s)
		if out[i].Name != names[i] {
			panic(fmt.Sprintf("workloads: benchmark registered as %q built a spec named %q",
				names[i], out[i].Name))
		}
		out[i].scale = s
		out[i].poolGen = gen
	}
	return out
}
