// Package results is the measurement schema: the one Go declaration of
// every row, curve and ranking the paper's experiments produce. The
// harness builds these values, internal/metrics renders and exports them,
// and the facade (pkg/numaws) re-exports them as aliases, so a new field
// touches one type instead of a mirror per layer.
//
// Each row of the paper's Fig. 7/Fig. 8 tables is one Row: the serial
// elision time TS, then T1/TP/WP/SP/IP per platform.
//
// The package imports only the standard library and nothing from this
// module, so every layer can depend on it.
package results

import (
	"fmt"
	"strings"
)

// PlatformResult is one platform's measurements for one benchmark: the
// one-worker time, the P-worker time, and the P-worker work/scheduling/idle
// breakdown summed over workers.
type PlatformResult struct {
	T1 int64 // one-worker time, cycles
	TP int64 // P-worker time, cycles
	WP int64 // summed work time at P workers
	SP int64 // summed scheduling time at P workers
	IP int64 // summed idle time at P workers
}

// SpawnOverhead is T1/TS: the cost of expressing the parallelism.
func (r PlatformResult) SpawnOverhead(ts int64) float64 { return ratio(r.T1, ts) }

// Scalability is T1/TP: the parallel speedup over the platform's own
// one-worker run.
func (r PlatformResult) Scalability() float64 { return ratio(r.T1, r.TP) }

// WorkInflation is WP/T1: how much the total useful-work time grew going
// parallel — the quantity the paper's NUMA-WS scheduler exists to shrink.
func (r PlatformResult) WorkInflation() float64 { return ratio(r.WP, r.T1) }

// RunFailure describes why a benchmark's measurement failed: the identity
// of the run that died plus the harness's failure classification. It is
// containment's public face — a session-level measurement call returns an
// error only for grid-level problems (cancellation, journal I/O), while a
// single benchmark's panic, deadline or verification mismatch becomes its
// row's Err with every other row intact. Its json tags are the JSON
// export's schema for a failed row's "error" object.
type RunFailure struct {
	Bench  string `json:"bench"`
	Policy string `json:"policy,omitempty"` // "" for serial-reference failures
	P      int    `json:"p"`
	Seed   int64  `json:"seed"`
	// Kind classifies the failure: "panic", "verify", "timeout" or
	// "cancel". Timeouts are transient (WithRetry re-runs them); the
	// others are deterministic properties of the run.
	Kind    string `json:"kind"`
	Message string `json:"msg"`
}

// Error implements error.
func (f *RunFailure) Error() string {
	mode := f.Policy
	if mode == "" {
		mode = "serial"
	}
	return fmt.Sprintf("%s [%s P=%d seed=%d]: %s: %s", f.Bench, mode, f.P, f.Seed, f.Kind, f.Message)
}

// Row is one benchmark's full measurement: the serial elision TS and both
// platforms' results — Cilk, the classic work-stealing baseline, and
// NUMAWS, the session's policy (the paper's scheduler unless WithPolicy
// said otherwise).
type Row struct {
	Name   string
	Input  string // "input size / base case" description
	TS     int64
	Cilk   PlatformResult
	NUMAWS PlatformResult
	P      int // worker count of the TP/WP/SP/IP columns
	// Err, when non-nil, marks this row as failed: one of the benchmark's
	// runs died and containment produced an error row (measurement fields
	// zero) instead of losing the whole grid. Renderers print a diagnostic
	// line for it; the exporters carry it alongside the identity fields.
	Err *RunFailure
}

// Run identifies one completed simulation of a measurement grid, for
// streaming consumers (Session.Each, the harness's Options.OnRun): which
// benchmark, under which policy ("serial" for the TS elision run), at
// which worker count and scheduler seed, and the completion time it
// measured.
type Run struct {
	Bench  string
	Policy string
	P      int
	Seed   int64
	Serial bool
	// Baseline marks runs of the comparison protocol's classic
	// work-stealing baseline column (always "cilk"), distinguishing them
	// from the session-policy column even when that policy is itself
	// "cilk", where (Bench, Policy, P, Seed) alone would not. False for
	// serial and sweep runs, which have no baseline column.
	Baseline bool
	// Replayed marks a run the result cache answered instead of a
	// simulation: a journal record, or an earlier or concurrent identical
	// run of the same session. Time is the stored measurement.
	Replayed bool
	Time     int64 // virtual cycles (TS for serial runs, TP otherwise)
}

// Series is one benchmark's scalability curve (the paper's Fig. 9): TP[i]
// is the completion time at P[i] workers.
type Series struct {
	Name string
	P    []int
	TP   []int64
}

// Speedup reports T1/TP per point (P[0] must be 1).
func (s Series) Speedup() []float64 { return speedup(s.TP) }

// SweepCurve is one (benchmark, machine) scalability curve of a topology
// sweep.
type SweepCurve struct {
	Bench    string
	Topology string // the topology spec the curve ran on
	Sockets  int
	Cores    int // total cores; the largest meaningful P
	P        []int
	TP       []int64
}

// Speedup reports T1/TP per point (P[0] must be 1).
func (s SweepCurve) Speedup() []float64 { return speedup(s.TP) }

// speedup divides the first point's time by every point's.
func speedup(tp []int64) []float64 {
	out := make([]float64, len(tp))
	for i, t := range tp {
		out[i] = ratio(tp[0], t)
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Export bundles every measurement kind for the machine-readable writers;
// any field may be empty.
type Export struct {
	Rows       []Row
	Series     []Series
	Sweeps     []SweepCurve
	Tournament *Tournament
}

// TournamentCell is one cell of a ranked tournament entry: the policy's
// completion time for one (benchmark, topology), averaged over the
// session's seeds, and its ratio to the cell's best time across all
// policies (1.0 = this policy won the cell).
type TournamentCell struct {
	Bench    string  `json:"bench"`
	Topology string  `json:"topology"`
	TP       int64   `json:"tp"`
	Norm     float64 `json:"norm"`
}

// TournamentEntry is one policy's ranked tournament outcome.
type TournamentEntry struct {
	Rank   int    `json:"rank"`
	Policy string `json:"policy"`
	// Score is the geometric mean of Norm over the cells; lower is better,
	// and 1.0 means the policy had the best time in every cell.
	Score float64 `json:"score"`
	// Cells holds one result per (bench, topology), bench-major, in the
	// tournament's axis order.
	Cells []TournamentCell `json:"cells"`
}

// Tournament is a complete ranked policy tournament: the grid axes and one
// entry per registered policy, best score first. The ranking is
// deterministic: same session configuration, same table. Its json tags,
// and those of its entries and cells, are the JSON export's schema for
// the "tournament" section.
type Tournament struct {
	Benches    []string          `json:"benches"`
	Topologies []string          `json:"topologies"`
	Entries    []TournamentEntry `json:"entries"`
}

// Winner reports the top-ranked policy name ("" for an empty tournament).
func (t Tournament) Winner() string {
	if len(t.Entries) == 0 {
		return ""
	}
	return t.Entries[0].Policy
}

// Table renders the tournament as the CLI's fixed-width ranking table: a
// one-line summary (the line CI smoke checks grep for), the ranked scores,
// then one completion-time table per topology, so cells measured on the
// same machine shape line up.
func (t Tournament) Table() string {
	var b strings.Builder
	best := 0.0
	if len(t.Entries) > 0 {
		best = t.Entries[0].Score
	}
	fmt.Fprintf(&b, "Tournament: %d policies x %d benchmark(s) x %d topology(s); winner %s (score %.4f)\n",
		len(t.Entries), len(t.Benches), len(t.Topologies), t.Winner(), best)
	b.WriteString("score = geomean over cells of TP / cell-best TP; 1.0000 means the policy won every cell\n\n")
	fmt.Fprintf(&b, "%4s  %-14s %8s\n", "rank", "policy", "score")
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "%4d  %-14s %8.4f\n", e.Rank, e.Policy, e.Score)
	}
	for _, topo := range t.Topologies {
		fmt.Fprintf(&b, "\n-- %s: TP by benchmark (x cell best) --\n", topo)
		fmt.Fprintf(&b, "%-14s", "policy")
		for _, bench := range t.Benches {
			fmt.Fprintf(&b, " %22s", bench)
		}
		b.WriteByte('\n')
		for _, e := range t.Entries {
			fmt.Fprintf(&b, "%-14s", e.Policy)
			for _, c := range e.Cells {
				if c.Topology != topo {
					continue
				}
				fmt.Fprintf(&b, " %22s", fmt.Sprintf("%d (%.3fx)", c.TP, c.Norm))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
