// Package wire is the sweep service's wire schema: the one Go declaration
// of every JSON value that crosses the service's HTTP boundary. The
// server (internal/server) encodes these types and the facade's streaming
// clients (pkg/numaws QueryGrid and QueryTournament) decode them; the
// facade re-exports the request, row and summary types as aliases, so
// there is nothing to keep in step.
//
// A streaming endpoint (POST /v1/grid, POST /v1/tournament) answers with
// NDJSON: one Event per line, a Row for every completed run in completion
// order, then one trailing Done. A stream that ends without its Done was
// aborted mid-grid. GET /v1/axes answers with Axes and GET /statusz with
// Status.
//
// A row line is appended and parsed without reflection (AppendRowEvent,
// ParseRowEvent), byte-identical to encoding/json: the parser accepts only
// the appender's layout, and a client decodes every line it declines with
// encoding/json, which stays the reference for what the stream accepts. Requests and trailers use encoding/json directly.
//
// The package imports only the standard library and nothing from this
// module, so both sides can depend on it.
package wire

// GridRequest is the body of POST /v1/grid: the cross product of the
// given experiment axes — the same axes the CLI takes. Empty axes take
// the CLI's defaults.
type GridRequest struct {
	// Benches restricts the grid to the named benchmarks, in the given
	// order; empty means every registered benchmark.
	Benches []string `json:"benches,omitempty"`
	// Topologies lists preset names or SOCKETSxCORES shapes; empty means
	// ["paper-4x8"].
	Topologies []string `json:"topologies,omitempty"`
	// Policies lists registered policy names; empty means ["numaws"].
	Policies []string `json:"policies,omitempty"`
	// Workers lists simulated worker counts; 0 means the whole machine of
	// each topology. Empty means [0].
	Workers []int `json:"workers,omitempty"`
	// Seeds lists scheduler seeds; 0 is rejected (the engine reserves it
	// as "default"). Empty means [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale is "small" or "full" (the default).
	Scale string `json:"scale,omitempty"`
	// Serial adds one serial-elision (TS) row per benchmark × topology.
	Serial bool `json:"serial,omitempty"`
	// Verify controls result verification; nil means true.
	Verify *bool `json:"verify,omitempty"`
}

// GridRow is one completed run, streamed the moment it finishes
// (completion order, not grid order — clients sort by the identity fields
// if they need canonical order). Because every simulation is
// deterministic in the row's identity fields, a Cached row is
// byte-identical to a freshly simulated one.
type GridRow struct {
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Scale    string `json:"scale"`
	Topology string `json:"topology"` // the requested spec string
	Policy   string `json:"policy"`   // "serial" for serial-elision rows
	P        int    `json:"p"`
	Seed     int64  `json:"seed"`
	Serial   bool   `json:"serial,omitempty"`
	// Cached marks a row served without simulating for this request: a
	// store hit, or a coalesced ride on a concurrent client's identical
	// in-flight run.
	Cached bool  `json:"cached"`
	Time   int64 `json:"time"`
	Work   int64 `json:"work"`
	Sched  int64 `json:"sched"`
	Idle   int64 `json:"idle"`
	// Err marks a contained run failure (panic, verification mismatch,
	// deadline); the measurement fields are zero and the rest of the grid
	// completed normally.
	Err *GridRowError `json:"err,omitempty"`
}

// GridRowError is a contained run failure on the wire.
type GridRowError struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// GridSummary trails a grid stream: how the rows broke down. Simulated
// counts the runs this request actually executed; on a fully warm query
// it is zero.
type GridSummary struct {
	Rows      int `json:"rows"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	Failed    int `json:"failed"`
}

// TournamentRequest is the body of POST /v1/tournament: a policy
// tournament over the benchmark × topology grid. Every cell runs at its
// machine's full core count — a fixed worker axis would bias the ranking
// toward machines it happens to fit — so the request has no worker axis.
type TournamentRequest struct {
	// Benches restricts the grid to the named benchmarks, in the given
	// order; empty means every registered benchmark.
	Benches []string `json:"benches,omitempty"`
	// Topologies lists preset names or SOCKETSxCORES shapes; empty means
	// ["paper-4x8"].
	Topologies []string `json:"topologies,omitempty"`
	// Policies lists the contestants; empty means every registered policy.
	Policies []string `json:"policies,omitempty"`
	// Seeds lists scheduler seeds to average each cell over; empty means
	// [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale is "small" or "full" (the default).
	Scale string `json:"scale,omitempty"`
	// Verify controls result verification; nil means true.
	Verify *bool `json:"verify,omitempty"`
}

// TournamentRank is one ranked policy of a tournament summary.
type TournamentRank struct {
	Rank   int     `json:"rank"`
	Policy string  `json:"policy"`
	Score  float64 `json:"score"` // geomean of per-cell TP / cell-best TP
}

// TournamentSummary trails a tournament stream: the grid counts (the
// embedded GridSummary's fields are flattened into the same JSON object)
// plus the deterministic ranking. Ranking is omitted when any cell failed
// — a ranking over missing cells would compare incomparables — so a
// summary with Failed > 0 is an unranked tournament.
type TournamentSummary struct {
	GridSummary
	Ranking []TournamentRank `json:"ranking,omitempty"`
}

// Event is one NDJSON line of a stream whose trailer is an S (GridSummary
// or TournamentSummary): exactly one field is set.
type Event[S any] struct {
	Row  *GridRow `json:"row,omitempty"`
	Done *S       `json:"done,omitempty"`
}

// Axes is the GET /v1/axes payload: every accepted axis value, so a
// client can build valid grid requests without guessing.
type Axes struct {
	Benches    []string `json:"benches"`
	Topologies []string `json:"topologies"` // presets; SOCKETSxCORES shapes are accepted too
	Policies   []string `json:"policies"`
	Scales     []string `json:"scales"`
}

// Status is the GET /statusz payload, expvar-style: the server's own
// counters plus its result store's and its workload pool's.
type Status struct {
	Grids     uint64 `json:"grids"`
	Rows      uint64 `json:"rows"`
	CacheHits uint64 `json:"cache_hits"`
	Simulated uint64 `json:"simulated"`
	Coalesced uint64 `json:"coalesced"`
	Failures  uint64 `json:"failures"`
	Inflight  int64  `json:"inflight"`
	Store     struct {
		Records int    `json:"records"`
		Corrupt int    `json:"corrupt_lines_skipped"`
		Puts    uint64 `json:"puts"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"store"`
	Pool struct {
		Built       uint64 `json:"built"`
		Pooled      uint64 `json:"pooled"`
		Refs        uint64 `json:"refs"`
		Quarantined uint64 `json:"quarantined"`
	} `json:"pool"`
}
