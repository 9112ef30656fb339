package main

// The service workloads: an in-process sweep service on httptest loopback,
// driven by a closed loop of two clients that each wait for a reply
// before sending the next query, as `numaws query` does.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/store"
	"repro/internal/workloads"
	"repro/pkg/numaws"
)

// Tuple seeds: base + k for the timed and traced queries, base + warmupSeeds + k
// for the cold set-up's warm-up queries, so no timed tuple is ever stored
// before its query.
const (
	seedStride  = 1_000_000
	warmupSeeds = seedStride / 2
)

// serviceInstance is a running sweep service plus its query mix.
type serviceInstance struct {
	cfg  *config
	warm bool
	dir  string
	path string // the store file
	srv  *numaws.Server
	hs   *httptest.Server
	next atomic.Int64 // cold: the next tuple seed
	want map[numaws.GridRow]bool
	grid numaws.GridRequest // warm: the repeated query
}

// seedBase offsets the tuple seeds by the run's seed.
func seedBase(cfg *config) int64 { return (cfg.seed % seedStride) * seedStride }

func startServiceCold(ctx context.Context, cfg *config, t *tally) (instance, error) {
	s, err := newService(cfg, false)
	if err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		s.close()
		return nil, err
	}
	s.next.Store(seedBase(cfg) + warmupSeeds)
	var started atomic.Int64
	s.clients(ctx, func() bool { return started.Add(1) <= int64(cfg.warmups) }, func(q queryResult) {
		t.op(s.checkCold(q))
	})
	s.next.Store(seedBase(cfg))
	if err := ctx.Err(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func startServiceWarm(ctx context.Context, cfg *config, t *tally) (instance, error) {
	s, err := newService(cfg, true)
	if err != nil {
		return nil, err
	}
	seeds := make([]int64, cfg.warmSeeds)
	for i := range seeds {
		seeds[i] = seedBase(cfg) + int64(i) + 1
	}
	s.grid = numaws.GridRequest{
		Benches: []string{"heat", "fib", "cilksort", "cg"}, Topologies: []string{"2x4"},
		Workers: []int{4}, Seeds: seeds, Scale: "small",
	}
	// Prefill through a first server, then close it and reopen the store:
	// the timed server replays every record from disk.
	if err := s.serve(); err != nil {
		s.close()
		return nil, err
	}
	q := s.query(ctx, s.grid)
	n := 4 * len(seeds)
	if q.err == nil && (q.sum.Rows != n || q.sum.Simulated != n || q.sum.Failed != 0) {
		q.err = fmt.Errorf("prefill summary %+v, want %d rows all simulated", q.sum, n)
	}
	t.op(q.err)
	if q.err != nil {
		s.close()
		return nil, q.err
	}
	s.want = map[numaws.GridRow]bool{}
	for _, r := range q.rows {
		s.want[r] = true
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func newService(cfg *config, warm bool) (*serviceInstance, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, err
	}
	return &serviceInstance{cfg: cfg, warm: warm, dir: dir, path: filepath.Join(dir, "store.jsonl")}, nil
}

// serve opens the store and starts the service over it.
func (s *serviceInstance) serve() error {
	srv, err := numaws.NewServer(numaws.ServerConfig{Store: s.path, Jobs: jobs})
	if err != nil {
		return err
	}
	s.srv, s.hs = srv, httptest.NewServer(srv.Handler())
	return nil
}

// stop shuts the service down and closes its store.
func (s *serviceInstance) stop() error {
	if s.hs == nil {
		return nil
	}
	s.hs.Close()
	err := s.srv.Close()
	s.srv, s.hs = nil, nil
	return err
}

func (s *serviceInstance) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// request is the next query: two never-seen tuples (cold) or the stored
// grid (warm).
func (s *serviceInstance) request() numaws.GridRequest {
	if s.warm {
		return s.grid
	}
	return numaws.GridRequest{
		Benches: []string{"heat", "fib"}, Topologies: []string{"2x4"},
		Workers: []int{4}, Seeds: []int64{s.next.Add(1)}, Scale: "small",
	}
}

// queryResult is one query's outcome.
type queryResult struct {
	latency, ttfb time.Duration
	rows          []numaws.GridRow
	sum           numaws.GridSummary
	err           error
}

// query sends one grid request and waits for its done trailer.
func (s *serviceInstance) query(ctx context.Context, req numaws.GridRequest) queryResult {
	var q queryResult
	t0 := time.Now()
	q.sum, q.err = numaws.QueryGrid(ctx, s.hs.URL, req, func(r numaws.GridRow) {
		if len(q.rows) == 0 {
			q.ttfb = time.Since(t0)
		}
		q.rows = append(q.rows, r)
	})
	q.latency = time.Since(t0)
	return q
}

// clients runs the closed loop: one client per job, each sending its next
// query only after the previous reply, while more allows; done sees every
// reply. It returns once every client has stopped.
func (s *serviceInstance) clients(ctx context.Context, more func() bool, done func(queryResult)) {
	var wg sync.WaitGroup
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && more() {
				done(s.query(ctx, s.request()))
			}
		}()
	}
	wg.Wait()
}

// checkCold: both tuples simulated now, none failed.
func (s *serviceInstance) checkCold(q queryResult) error {
	if q.err != nil {
		return q.err
	}
	if q.sum.Rows != 2 || q.sum.Simulated != 2 || q.sum.Failed != 0 || len(q.rows) != 2 {
		return fmt.Errorf("cold query: summary %+v with %d rows, want 2 rows both simulated", q.sum, len(q.rows))
	}
	for _, r := range q.rows {
		if r.Err != nil {
			return fmt.Errorf("cold query: %s: %s", r.Err.Kind, r.Err.Msg)
		}
	}
	return nil
}

// checkWarm: every row served from the store and equal, apart from its
// cached flag, to the row the prefill simulated.
func (s *serviceInstance) checkWarm(q queryResult) error {
	if q.err != nil {
		return q.err
	}
	n := len(s.want)
	if q.sum.Rows != n || q.sum.Cached != n || len(q.rows) != n {
		return fmt.Errorf("warm query: summary %+v with %d rows, want %d rows all cached", q.sum, len(q.rows), n)
	}
	for _, r := range q.rows {
		r.Cached = false
		if !s.want[r] {
			return fmt.Errorf("warm query: row %s/%s seed %d differs from the prefill", r.Bench, r.Policy, r.Seed)
		}
	}
	return nil
}

func (s *serviceInstance) check(q queryResult) error {
	if s.warm {
		return s.checkWarm(q)
	}
	return s.checkCold(q)
}

// timed runs the closed loop until the deadline, sampling the per-run
// counters at cfg.windows evenly spaced boundaries.
func (s *serviceInstance) timed(ctx context.Context, until time.Time, t *tally) (phase, error) {
	var ph phase
	var rows atomic.Int64
	start := time.Now()
	span := until.Sub(start)
	samples := []sample{takeSample(0)}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= s.cfg.windows; k++ {
			tm := time.NewTimer(time.Until(start.Add(span * time.Duration(k) / time.Duration(s.cfg.windows))))
			select {
			case <-ctx.Done():
				tm.Stop()
				return
			case <-tm.C:
			}
			samples = append(samples, takeSample(rows.Load()))
		}
	}()
	var mu sync.Mutex
	s.clients(ctx, func() bool { return time.Now().Before(until) }, func(q queryResult) {
		err := s.check(q)
		t.op(err)
		if err != nil {
			return
		}
		rows.Add(int64(len(q.rows)))
		mu.Lock()
		ph.opMs = append(ph.opMs, ms(q.latency))
		ph.ttfbMs = append(ph.ttfbMs, ms(q.ttfb))
		mu.Unlock()
	})
	<-sampled
	ph.samples = samples
	return ph, ctx.Err()
}

// rep runs cfg.traceQueries queries and reports their tuples.
func (s *serviceInstance) rep(ctx context.Context, t *tally) (repInfo, error) {
	var info repInfo
	var mu sync.Mutex
	var started atomic.Int64
	s0 := takeSample(0)
	s.clients(ctx, func() bool { return started.Add(1) <= int64(s.cfg.traceQueries) }, func(q queryResult) {
		err := s.check(q)
		t.op(err)
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		info.opMs = append(info.opMs, ms(q.latency))
		info.rowsPerOp = q.sum.Rows
		info.simPerOp = q.sum.Simulated
		for _, r := range q.rows {
			info.tuples = append(info.tuples, tuple{Bench: r.Bench, Scale: workloads.ScaleSmall, Topo: r.Topology,
				Policy: r.Policy, P: r.P, Seed: r.Seed, Time: r.Time})
		}
	})
	s1 := takeSample(0)
	info.wall, info.cpu = s1.at.Sub(s0.at), s1.cpu-s0.cpu
	info.store = s.path
	if len(info.opMs) == 0 {
		return info, errors.New("no traced query succeeded")
	}
	return info, ctx.Err()
}

// timingCache is a harness.ResultCache decorator timing the store calls
// ExecuteThrough makes.
type timingCache struct {
	st       *store.Store
	get, put time.Duration
	puts     []float64 // ms per Put
}

func (c *timingCache) Get(k journal.Key) (journal.Result, bool) {
	t0 := time.Now()
	r, ok := c.st.Get(k)
	c.get += time.Since(t0)
	return r, ok
}

func (c *timingCache) Put(k journal.Key, r journal.Result) error {
	t0 := time.Now()
	err := c.st.Put(k, r)
	d := time.Since(t0)
	c.put += d
	c.puts = append(c.puts, ms(d))
	return err
}

// serviceProbes times the store and the execute-through seam on the
// workload's own records: a second handle replays the workload's store
// (open, then Get of every tuple), and every tuple executes through a
// fresh store behind timingCache. The server and HTTP share of a query is
// what its median latency leaves after those.
func serviceProbes(ctx context.Context, cfg *config, info repInfo, tuples []tuple, x *executor, out map[string]float64) error {
	t0 := time.Now()
	st, err := store.Open(info.store)
	if err != nil {
		return err
	}
	out["store.open_s"] = time.Since(t0).Seconds()
	out["store.records"] = float64(st.Len())
	var gets, execs []float64
	for _, tp := range tuples {
		spec, top, pol, err := x.resolve(tp)
		if err != nil {
			st.Close()
			return err
		}
		key := harness.KeyFor(spec, pol, harness.Options{Topology: top, P: tp.P, Seed: tp.Seed, Verify: true}, tp.serial())
		t := time.Now()
		_, ok := st.Get(key)
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
		if !ok {
			st.Close()
			return fmt.Errorf("%s: not in the workload's store", tp)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(cfg.workDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fresh, err := store.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		return err
	}
	defer fresh.Close()
	tc := &timingCache{st: fresh}
	for _, tp := range tuples {
		spec, top, pol, _ := x.resolve(tp)
		before := tc.get + tc.put
		t := time.Now()
		res, _, err := harness.ExecuteThrough(ctx, tc, spec, pol, harness.Options{Topology: top, P: tp.P, Seed: tp.Seed, Verify: true}, tp.serial())
		total := time.Since(t)
		if err != nil {
			return err
		}
		if res.Time != tp.Time {
			return fmt.Errorf("%s: ExecuteThrough measured %d cycles, the service %d", tp, res.Time, tp.Time)
		}
		execs = append(execs, ms(total-(tc.get+tc.put-before)))
	}
	get, exec, put := median(gets), median(execs), median(tc.puts)
	out["store.get_us_p50"] = get
	out["harness.execute_ms_p50"] = exec
	out["store.put_ms_p50"] = put

	// The closed loop keeps one query per job in flight, and the admission
	// bound runs one simulation per job at a time, so a query waits for
	// simPerOp simulations (each followed by its Put) in sequence; lookups
	// run once per row.
	rows := float64(info.rowsPerOp)
	rest := median(info.opMs)*1e3 - rows*get - float64(info.simPerOp)*(exec+put)*1e3
	out["server.us_per_row"] = max(rest, 0) / rows
	return nil
}
