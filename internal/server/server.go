// Package server implements the numaws sweep service: an HTTP/JSON API
// over the measurement harness backed by a persistent content-addressed
// result store (internal/store). A grid request is expanded to its run
// tuples and handed to the harness's one grid executor,
// harness.ExecuteGrid, which executes them through the store. Every tuple
// whose key is already recorded is answered first, and those rows go to
// the client under one flush. The rest simulate, concurrent identical runs
// coalescing into one simulation, and each row streams as NDJSON the
// moment it finishes. Because every simulation is deterministic in its
// key, a cached row is byte-identical to a simulated one — the service
// turns repeated queries into O(1) lookups.
//
// Endpoints:
//
//	POST /v1/grid        expand and run a grid, streaming one NDJSON
//	                     event per completed row and a trailing summary
//	                     event; a stream that ends without the summary
//	                     was aborted mid-grid
//	POST /v1/tournament  rank policies over a benchmark × topology grid:
//	                     the same row stream, and a trailer that adds the
//	                     ranking
//	GET  /v1/axes        the accepted axis values (benchmarks, topology
//	                     presets, policies, scales)
//	GET  /healthz        liveness
//	GET  /statusz        JSON counters: grids, rows, cache hits,
//	                     simulated and coalesced runs, admitted runs in
//	                     flight, store state (records, corruption found
//	                     at open, puts, and the first-pass lookups' hits
//	                     and misses) and workload-pool counters
//	                     (including quarantines)
//
// Every JSON body above is a type of pkg/numaws/wire, the single
// declaration of the service's schema; the facade's clients decode the
// same types. Row lines are written with wire.AppendRowEvent, whose bytes
// are encoding/json's; everything else is encoded by encoding/json.
//
// Concurrency: the server keeps its expansion, its NDJSON stream and its
// counters; the fan-out is the executor's. Each request runs its misses on
// up to Config.Jobs goroutines, and the server passes the executor one
// server-wide semaphore of Config.Jobs slots, which bounds the runs
// admitted across all clients, so one large grid cannot starve the host.
// A run waiting on another client's identical simulation holds its own
// admission slot, and /statusz's inflight is the slots taken.
// Client disconnect cancels that client's request context, which aborts
// only its own uncached work — a run another client is waiting on is
// taken over by that waiter, and completed records are already durable.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/pkg/numaws/wire"
)

// Config configures a Server.
type Config struct {
	// Store is the persistent result store; required.
	Store *store.Store
	// Jobs bounds concurrent simulations across all requests; at least
	// 1 (numaws.NewServer sets the default).
	Jobs int
	// MaxGridRuns is the largest accepted grid, in run tuples; values
	// below 1 mean the default of 4096.
	MaxGridRuns int
	// Logf receives server log lines; required (numaws.NewServer sets
	// the default).
	Logf func(format string, args ...any)
}

// Server serves grid queries over a result store. Safe for concurrent
// use; build with New.
type Server struct {
	st      *store.Store
	maxRuns int
	logf    func(string, ...any)

	// sem is the admission bound: at most Config.Jobs runs admitted
	// server-wide (simulating, or waiting on an identical simulation), no
	// matter how many clients are streaming.
	sem chan struct{}

	grids, rows            atomic.Uint64
	hits, misses           atomic.Uint64
	coalesced              atomic.Uint64
	storeHits, storeMisses atomic.Uint64 // the first pass's store lookups
	failures               atomic.Uint64
}

// New builds a Server over the given store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil || cfg.Jobs < 1 || cfg.Logf == nil {
		return nil, errors.New("server: Config needs a Store, Jobs of at least 1 and a Logf")
	}
	maxRuns := cfg.MaxGridRuns
	if maxRuns < 1 {
		maxRuns = 4096
	}
	return &Server{st: cfg.Store, maxRuns: maxRuns, logf: cfg.Logf, sem: make(chan struct{}, cfg.Jobs)}, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/grid", s.handleGrid)
	mux.HandleFunc("/v1/tournament", s.handleTournament)
	mux.HandleFunc("/v1/axes", s.handleAxes)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

// handleGrid expands the request and streams its runs (see streamRuns);
// the trailer is the grid's counts.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req wire.GridRequest
	if !readRequest(w, r, "grid", &req) {
		return
	}
	g, err := s.expand(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	streamRuns(s, w, r, "grid", g, func(_ *grid, _ []int64, sum wire.GridSummary) (*wire.GridSummary, error) {
		return &sum, nil
	})
}

// handleTournament runs a policy tournament through the same store-backed,
// single-flight execution path grids use: every (policy, bench, topology,
// seed) run streams as an NDJSON row the moment it finishes, and the
// trailer carries the deterministic ranking — the geometric mean over
// cells of completion time normalized to each cell's best, averaged over
// the request's seeds. A warm store re-ranks without simulating anything.
func (s *Server) handleTournament(w http.ResponseWriter, r *http.Request) {
	var req wire.TournamentRequest
	if !readRequest(w, r, "tournament", &req) {
		return
	}
	// The ranking needs exactly one measurement per (policy, bench,
	// machine, seed); expand rejects a repeated axis value and
	// DistinctMachines two names of one machine up front, rather than let
	// either surface as a ranking error or a skewed score after the grid
	// already streamed.
	polNames := req.Policies
	if len(polNames) == 0 {
		polNames = sched.Names()
	}
	g, err := s.expand(wire.GridRequest{
		Benches: req.Benches, Topologies: req.Topologies, Policies: polNames,
		Seeds: req.Seeds, Scale: req.Scale, Verify: req.Verify,
	})
	if err == nil {
		err = harness.DistinctMachines(g.machines)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	streamRuns(s, w, r, "tournament", g, rank)
}

// rank builds a tournament's trailer from its runs' times, in the
// expansion's canonical order: metrics.NewTournament folds a cell's seeds
// into its mean exactly as it does for harness.Tournament. A tournament
// with failed cells is unranked.
func rank(g *grid, times []int64, sum wire.GridSummary) (*wire.TournamentSummary, error) {
	out := &wire.TournamentSummary{GridSummary: sum}
	if sum.Failed > 0 {
		return out, nil
	}
	runs := make([]metrics.CellTime, len(times))
	for i, r := range g.runs {
		runs[i] = metrics.CellTime{Policy: r.Policy.Name(), Bench: r.Spec.Name, Topology: g.topology(i), TP: times[i]}
	}
	t, err := metrics.NewTournament(runs)
	if err != nil {
		// Unreachable with expand's repeated-value check.
		return nil, err
	}
	for _, e := range t.Entries {
		out.Ranking = append(out.Ranking, wire.TournamentRank{Rank: e.Rank, Policy: e.Policy, Score: e.Score})
	}
	return out, nil
}

// readRequest decodes a streaming endpoint's POST body into req, bounded
// at 1 MiB. On failure it has already answered (405 or 400) and returns
// false.
func readRequest(w http.ResponseWriter, r *http.Request, what string, req any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, 1<<20), req); err != nil {
		http.Error(w, "bad "+what+" request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// streamRuns is the one execution path of every streaming endpoint: it
// runs the expanded grid g through harness.ExecuteGrid under the server's
// admission semaphore. The rows the store already held are written first,
// under one flush; each other row is written and flushed as it completes.
// Contained run failures (*harness.RunError: panic, verification mismatch,
// deadline) become their row's err field and the grid proceeds. Last comes
// the trailer that done builds from the grid, its runs' times
// (index-addressed in expansion order, not stream order) and their counts.
// The executor runs under the request's context: client disconnect skips
// the runs not yet started, and the stream ends without its trailer — as
// it does when a run hits a grid-level error (cancellation, store I/O), a
// write fails, or done fails.
func streamRuns[S any](s *Server, w http.ResponseWriter, r *http.Request, what string,
	g *grid, done func(*grid, []int64, wire.GridSummary) (*S, error)) {
	s.grids.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher) // nil when the writer cannot flush (tests)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	times := make([]int64, len(g.runs))
	var sum wire.GridSummary
	var line []byte    // the row line being written, reused
	flushEach := false // past the stored rows: flush each row as it completes
	stored := func(hits int) {
		s.storeHits.Add(uint64(hits))
		s.storeMisses.Add(uint64(len(g.runs) - hits))
		if hits > 0 {
			flush()
		}
		flushEach = true
	}
	err := harness.ExecuteGrid(r.Context(), cap(s.sem), s.st, s.sem, g.runs, stored,
		func(i int, key journal.Key, res journal.Result, out harness.Outcome, re *harness.RunError) error {
			row := g.row(i, key, res, re == nil && out != harness.Simulated)
			times[i] = res.Time
			sum.Rows++
			switch {
			case re != nil:
				row.Err = &wire.GridRowError{Kind: re.Kind.String(), Msg: re.Error()}
				sum.Failed++
				s.failures.Add(1)
			case out == harness.Simulated:
				sum.Simulated++
				s.misses.Add(1)
			case out == harness.Coalesced:
				sum.Cached++
				s.coalesced.Add(1)
			default:
				sum.Cached++
				s.hits.Add(1)
			}
			s.rows.Add(1)
			line = wire.AppendRowEvent(line[:0], &row)
			if _, err := w.Write(line); err != nil {
				return err
			}
			if flushEach {
				flush()
			}
			return nil
		})
	if err != nil {
		// The stream is committed to 200 by now; ending it without the
		// done trailer is the in-band abort signal.
		s.logf("numaws: %s aborted: %v", what, err)
		return
	}
	trailer, err := done(g, times, sum)
	if err != nil {
		s.logf("numaws: %s trailer: %v", what, err)
		return
	}
	if err := json.NewEncoder(w).Encode(wire.Event[S]{Done: trailer}); err != nil {
		s.logf("numaws: %s summary write: %v", what, err)
		return
	}
	flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleAxes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, wire.Axes{
		Benches:    workloads.Names(),
		Topologies: topology.Presets(),
		Policies:   sched.Names(),
		Scales:     []string{"small", "full"},
	})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var st wire.Status
	st.Grids = s.grids.Load()
	st.Rows = s.rows.Load()
	st.CacheHits = s.hits.Load()
	st.Simulated = s.misses.Load()
	st.Coalesced = s.coalesced.Load()
	st.Failures = s.failures.Load()
	st.Inflight = int64(len(s.sem))
	c := s.st.Counters()
	st.Store.Records, st.Store.Corrupt = c.Records, c.Skipped
	st.Store.Puts, st.Store.Hits, st.Store.Misses = c.Puts, s.storeHits.Load(), s.storeMisses.Load()
	st.Pool.Built, st.Pool.Pooled, st.Pool.Refs, st.Pool.Quarantined = workloads.PoolCounters()
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
