// Package server implements the numaws sweep service: an HTTP/JSON API
// over the measurement harness backed by a persistent content-addressed
// result store (internal/store). A grid request is expanded to its run
// tuples, each with its key. Every tuple whose key is already recorded is
// answered from the store first, and those rows go to the client in one
// write. The rest execute through the store with harness.ExecuteThrough,
// which coalesces concurrent identical runs into one simulation, and each
// row streams as NDJSON the moment it finishes. Because every simulation is
// deterministic in its key, a cached row is byte-identical to a simulated
// one — the service turns repeated queries into O(1) lookups.
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
// Concurrency: each request fans the runs the store did not hold out
// with its own exec.ForEach, and a server-wide semaphore bounds the
// runs admitted across all clients, so one large grid cannot starve the
// host. A run waiting on another client's identical simulation holds its
// own admission slot.
// Client disconnect cancels that client's request context, which aborts
// only its own uncached work — a run another client is waiting on is
// taken over by that waiter, and completed records are already durable.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
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
	// Jobs bounds concurrent simulations across all requests; values
	// below 1 mean 1.
	Jobs int
	// MaxGridRuns is the largest accepted grid, in run tuples; values
	// below 1 mean the default of 4096.
	MaxGridRuns int
	// Logf, when non-nil, receives server log lines.
	Logf func(format string, args ...any)
}

// Server serves grid queries over a result store. Safe for concurrent
// use; build with New.
type Server struct {
	st      *store.Store
	jobs    int
	maxRuns int
	logf    func(string, ...any)

	// sem is the admission bound: at most jobs runs admitted server-wide
	// (simulating, or waiting on an identical simulation), no matter how
	// many clients are streaming.
	sem chan struct{}

	grids, rows            atomic.Uint64
	hits, misses           atomic.Uint64
	coalesced              atomic.Uint64
	storeHits, storeMisses atomic.Uint64 // the first pass's store lookups
	failures               atomic.Uint64
	inflight               atomic.Int64
}

// New builds a Server over the given store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	maxRuns := cfg.MaxGridRuns
	if maxRuns < 1 {
		maxRuns = 4096
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		st: cfg.Store, jobs: jobs, maxRuns: maxRuns, logf: logf,
		sem: make(chan struct{}, jobs),
	}, nil
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
	streamRuns(s, w, r, "grid", req, func(_ []*wire.GridRow, sum wire.GridSummary) (*wire.GridSummary, error) {
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
	polNames := req.Policies
	if len(polNames) == 0 {
		polNames = sched.Names()
	}
	// The ranking needs exactly one measurement per (policy, bench,
	// topology, seed); a duplicated axis entry would give its cells twice
	// the runs of the others, so it is rejected up front rather than
	// surfacing as a ranking error after the grid already streamed. The axes are checked in a fixed order so
	// a request with several duplicates always names the same one.
	for _, axis := range []struct {
		name string
		vals []string
	}{{"benches", req.Benches}, {"topologies", req.Topologies}, {"policies", polNames}} {
		seen := make(map[string]bool, len(axis.vals))
		for _, v := range axis.vals {
			if seen[v] {
				http.Error(w, fmt.Sprintf("duplicate %s entry %q", axis.name, v), http.StatusBadRequest)
				return
			}
			seen[v] = true
		}
	}
	streamRuns(s, w, r, "tournament", wire.GridRequest{
		Benches: req.Benches, Topologies: req.Topologies, Policies: polNames,
		Seeds: req.Seeds, Scale: req.Scale, Verify: req.Verify,
	}, rank)
}

// rank builds a tournament's trailer from its rows, in the expansion's
// canonical order: each row is one run, and metrics.NewTournament folds
// a cell's seeds into its mean exactly as it does for harness.Tournament.
// A tournament with failed cells is unranked.
func rank(rows []*wire.GridRow, sum wire.GridSummary) (*wire.TournamentSummary, error) {
	out := &wire.TournamentSummary{GridSummary: sum}
	if sum.Failed > 0 {
		return out, nil
	}
	runs := make([]metrics.CellTime, len(rows))
	for i, row := range rows {
		runs[i] = metrics.CellTime{Policy: row.Policy, Bench: row.Bench, Topology: row.Topology, TP: row.Time}
	}
	t, err := metrics.NewTournament(runs)
	if err != nil {
		// Unreachable with handleTournament's duplicate-axis check.
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
// expands req (a 400 when invalid) and answers in two passes. The first
// looks every tuple up in the store and writes each hit as a row event,
// with one flush after the loop. The second fans the misses out with
// exec.ForEach and streams each simulated row as its own flushed event,
// in completion order. The passes are separate because ForEach runs at
// most s.jobs jobs at once: a hit queued behind a miss would wait for a
// simulation.
// Last comes the trailer that done builds from the rows (index-addressed
// in expansion order, not stream order) and their counts. The handler's
// context is the request's: client disconnect cancels the ForEach,
// skipping runs not yet started, and the stream ends without its trailer — as it
// does when a run hits a grid-level error (cancellation, store I/O) or
// done fails.
func streamRuns[S any](s *Server, w http.ResponseWriter, r *http.Request, what string,
	req wire.GridRequest, done func([]*wire.GridRow, wire.GridSummary) (*S, error)) {
	runs, err := s.expand(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.grids.Add(1)
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	st := newStream(w)
	rows := make([]*wire.GridRow, len(runs))
	var sum wire.GridSummary
	var misses []int
	for i := range runs {
		res, ok := s.st.Get(runs[i].key)
		if !ok {
			s.storeMisses.Add(1)
			misses = append(misses, i)
			continue
		}
		row := runs[i].row(res, true)
		rows[i] = row
		sum.Rows++
		sum.Cached++
		s.storeHits.Add(1)
		s.hits.Add(1)
		s.rows.Add(1)
		if err := st.row(row); err != nil {
			s.logf("numaws: %s aborted: %v", what, err)
			return
		}
	}
	if sum.Cached > 0 {
		st.flush()
	}

	var mu sync.Mutex
	err = exec.ForEach(ctx, s.jobs, len(misses), func(k int) error {
		i := misses[k]
		row, err := s.runOne(ctx, &runs[i])
		if err != nil {
			return err
		}
		mu.Lock()
		rows[i] = row
		sum.Rows++
		switch {
		case row.Err != nil:
			sum.Failed++
		case row.Cached:
			sum.Cached++
		default:
			sum.Simulated++
		}
		mu.Unlock()
		s.rows.Add(1)
		if err := st.row(row); err != nil {
			return err
		}
		st.flush()
		return nil
	})
	if err != nil {
		// The stream is committed to 200 by now; ending it without the
		// done trailer is the in-band abort signal.
		s.logf("numaws: %s aborted: %v", what, err)
		return
	}
	trailer, err := done(rows, sum)
	if err != nil {
		s.logf("numaws: %s trailer: %v", what, err)
		return
	}
	if err := st.event(wire.Event[S]{Done: trailer}); err != nil {
		s.logf("numaws: %s summary write: %v", what, err)
	}
}

// runOne produces the grid row of a tuple the store did not hold at
// lookup. It takes an admission slot, then executes the tuple through the
// store, which simulates it at most once across all concurrent clients:
// the row is cached when this request did not simulate — a coalesced ride
// on another request's run, or a record another request stored since the
// lookup. Contained run failures (*harness.RunError: panic, verification
// mismatch, deadline) become the row's err field and the grid proceeds;
// only cancellation and store I/O return an error.
func (s *Server) runOne(ctx context.Context, rn *runSpec) (*wire.GridRow, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.inflight.Add(1)
	opt := harness.Options{Topology: rn.top, P: rn.key.P, Seed: rn.key.Seed, Verify: rn.key.Verify}
	res, outcome, err := harness.ExecuteThrough(ctx, s.st, rn.spec, rn.pol, opt, rn.key.Serial)
	s.inflight.Add(-1)
	<-s.sem
	if err != nil {
		var re *harness.RunError
		if errors.As(err, &re) && ctx.Err() == nil {
			s.failures.Add(1)
			row := rn.row(journal.Result{}, false)
			row.Err = &wire.GridRowError{Kind: re.Kind.String(), Msg: re.Error()}
			return row, nil
		}
		return nil, err
	}
	switch outcome {
	case harness.Simulated:
		s.misses.Add(1)
	case harness.Coalesced:
		s.coalesced.Add(1)
	default:
		s.hits.Add(1)
	}
	return rn.row(res, outcome != harness.Simulated), nil
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
	st.Inflight = s.inflight.Load()
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

// stream serializes NDJSON events onto one response: ForEach's workers emit
// rows concurrently, and the ResponseWriter is not safe for concurrent
// writes. row appends each row line with wire.AppendRowEvent into a
// reused buffer and leaves it in the writer's buffer until flush; event
// encodes any other event (the trailer) with encoding/json and flushes it.
type stream struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte       // the row line being written, reused under mu
	fl  http.Flusher // nil when the writer cannot flush (tests)
}

func newStream(w http.ResponseWriter) *stream {
	st := &stream{w: w}
	if fl, ok := w.(http.Flusher); ok {
		st.fl = fl
	}
	return st
}

func (s *stream) row(r *wire.GridRow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = wire.AppendRowEvent(s.buf[:0], r)
	_, err := s.w.Write(s.buf)
	return err
}

func (s *stream) event(ev any) error {
	s.mu.Lock()
	err := json.NewEncoder(s.w).Encode(ev)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *stream) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fl != nil {
		s.fl.Flush()
	}
}
