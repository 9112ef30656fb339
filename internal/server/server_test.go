// End-to-end tests for the sweep service, driven the way a real client
// drives it: a live handler behind httptest and the facade's QueryGrid
// streaming client. Living in package server_test lets them import
// pkg/numaws. The wire bytes themselves are pinned by pkg/numaws/wire's
// own tests.
//
// Several tests arm faultinject plans, which are process-global, so no
// test in this file runs with t.Parallel.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/pkg/numaws"
	"repro/pkg/numaws/wire"
)

// newService builds a facade server over a store at path and mounts it
// behind httptest. Callers own srv.Close (the store) — the httptest
// server is cleaned up automatically.
func newService(t *testing.T, path string, jobs int) (*numaws.Server, *httptest.Server) {
	t.Helper()
	srv, err := numaws.NewServer(numaws.ServerConfig{
		Store: path, Jobs: jobs,
		Logf: func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// smallGrid is the suite's standard request: 1 serial + 2 workers × 2
// seeds = 5 runs of the cheapest benchmark at small scale on a small
// machine.
func smallGrid() numaws.GridRequest {
	return numaws.GridRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Workers:    []int{2, 4},
		Seeds:      []int64{1, 2},
		Scale:      "small",
		Serial:     true,
	}
}

// collect runs one query and returns its rows in canonical identity order
// (the service streams in completion order).
func collect(t *testing.T, url string, req numaws.GridRequest) ([]numaws.GridRow, numaws.GridSummary) {
	t.Helper()
	var rows []numaws.GridRow
	sum, err := numaws.QueryGrid(t.Context(), url, req, func(row numaws.GridRow) {
		rows = append(rows, row)
	})
	if err != nil {
		t.Fatal(err)
	}
	sortRows(rows)
	return rows, sum
}

func sortRows(rows []numaws.GridRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		ka := fmt.Sprintf("%s|%s|%s|%s|%04d|%08d|%v", a.Bench, a.Topology, a.Policy, a.Scale, a.P, a.Seed, a.Serial)
		kb := fmt.Sprintf("%s|%s|%s|%s|%04d|%08d|%v", b.Bench, b.Topology, b.Policy, b.Scale, b.P, b.Seed, b.Serial)
		return ka < kb
	})
}

// TestColdThenWarmQuery is the tentpole's acceptance test: a repeated
// identical grid query is served entirely from the store — zero
// simulations, proven by arming a panic on every run — with rows
// byte-identical to the cold query's.
func TestColdThenWarmQuery(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	cold, coldSum := collect(t, hs.URL, smallGrid())
	if coldSum.Rows != 5 || coldSum.Simulated != 5 || coldSum.Cached != 0 || coldSum.Failed != 0 {
		t.Fatalf("cold summary: %+v, want 5 rows all simulated", coldSum)
	}
	if len(cold) != 5 {
		t.Fatalf("cold query streamed %d rows, want 5", len(cold))
	}
	for _, row := range cold {
		if row.Cached {
			t.Errorf("cold row claims cached: %+v", row)
		}
		if row.Time <= 0 || (!row.Serial && row.Work <= 0) {
			t.Errorf("implausible row: %+v", row)
		}
	}

	// Any simulation now panics; only the store can answer.
	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	defer faultinject.Disarm()

	warm, warmSum := collect(t, hs.URL, smallGrid())
	if warmSum.Simulated != 0 || warmSum.Cached != 5 || warmSum.Failed != 0 {
		t.Fatalf("warm summary: %+v, want 5 rows all cached", warmSum)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Errorf("warm row not cached: %+v", warm[i])
		}
		warm[i].Cached = false
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm rows diverged from cold rows:\n cold %+v\n warm %+v", cold, warm)
	}
}

// TestConcurrentIdenticalQueriesCoalesce launches identical grids at
// once: across all clients each unique tuple simulates exactly once —
// the rest are store hits or coalesced rides on the leader's run.
func TestConcurrentIdenticalQueriesCoalesce(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	req := numaws.GridRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Workers:    []int{2},
		Seeds:      []int64{1, 2, 3},
		Scale:      "small",
	}
	const clients = 3
	const unique = 3 // 1 bench × 1 topology × 1 policy × 1 worker count × 3 seeds

	var wg sync.WaitGroup
	sums := make([]numaws.GridSummary, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = numaws.QueryGrid(context.Background(), hs.URL, req, nil)
		}(i)
	}
	wg.Wait()

	simulated := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sums[i].Rows != unique || sums[i].Failed != 0 {
			t.Errorf("client %d summary: %+v", i, sums[i])
		}
		simulated += sums[i].Simulated
	}
	if simulated != unique {
		t.Errorf("%d simulations across %d identical queries, want exactly %d (one per unique tuple)",
			simulated, clients, unique)
	}

	// Every row is a simulation, a coalesced ride or a store answer, and
	// the store recorded each tuple once.
	var st wire.Status
	getJSON(t, hs.URL+"/statusz", &st)
	if st.Simulated != unique || st.Simulated+st.Coalesced+st.CacheHits != clients*unique ||
		st.Store.Puts != unique || st.Inflight != 0 {
		t.Errorf("statusz: simulated=%d coalesced=%d cache_hits=%d store.puts=%d inflight=%d, want %d, %d in all, %d, 0",
			st.Simulated, st.Coalesced, st.CacheHits, st.Store.Puts, st.Inflight, unique, clients*unique, unique)
	}
}

// TestClientCancelMidStream cancels a query after its first row: the
// server must abandon that client's remaining work and leak no
// goroutines. With Jobs: 1 the grid is strictly sequential, so the cancel
// lands with most of the grid still pending.
func TestClientCancelMidStream(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()

	baseline := runtime.NumGoroutine()

	req := numaws.GridRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Workers:    []int{2},
		Seeds:      []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Scale:      "small",
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	rows := 0
	_, err := numaws.QueryGrid(ctx, hs.URL, req, func(numaws.GridRow) {
		rows++
		cancel()
	})
	if err == nil {
		t.Fatal("cancelled query returned a summary")
	}
	if rows == 0 {
		t.Fatal("query cancelled before any row streamed")
	}
	if rows == 8 {
		t.Error("all 8 rows streamed; the cancel was not mid-stream")
	}

	// The handler, its pool workers and the aborted simulation must all
	// unwind; poll because the unwind races the client's return.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancel: %d, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRestartServesStoredRows kills the service and brings a new one up
// over the same store file: every previously streamed row must come back
// from disk, proven by arming a panic on any simulation.
func TestRestartServesStoredRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	srv1, hs1 := newService(t, path, 4)
	cold, coldSum := collect(t, hs1.URL, smallGrid())
	if coldSum.Simulated != 5 {
		t.Fatalf("cold summary: %+v", coldSum)
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newService(t, path, 4)
	defer srv2.Close()

	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	defer faultinject.Disarm()

	warm, warmSum := collect(t, hs2.URL, smallGrid())
	if warmSum.Simulated != 0 || warmSum.Cached != 5 || warmSum.Failed != 0 {
		t.Fatalf("summary after restart: %+v, want 5 rows all cached", warmSum)
	}
	for i := range warm {
		warm[i].Cached = false
	}
	for i := range cold {
		cold[i].Cached = false
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("rows after restart diverged:\n before %+v\n after  %+v", cold, warm)
	}
}

// TestFailureRowsStreamInBand arms a panic on a cold store: each failed
// run streams as a row with its err field set, the grid completes, and
// nothing poisons the store — disarming and re-querying simulates clean.
func TestFailureRowsStreamInBand(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	req := numaws.GridRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Workers:    []int{2},
		Seeds:      []int64{1, 2},
		Scale:      "small",
	}
	rows, sum := collect(t, hs.URL, req)
	faultinject.Disarm()

	if sum.Rows != 2 || sum.Failed != 2 {
		t.Fatalf("summary under injection: %+v, want 2 failed rows", sum)
	}
	for _, row := range rows {
		if row.Err == nil {
			t.Fatalf("failed run streamed without err: %+v", row)
		}
		if row.Err.Kind != "panic" || !strings.Contains(row.Err.Msg, "panic") {
			t.Errorf("failure row: %+v", row.Err)
		}
		if row.Time != 0 || row.Work != 0 {
			t.Errorf("failed row carries measurements: %+v", row)
		}
	}

	clean, cleanSum := collect(t, hs.URL, req)
	if cleanSum.Simulated != 2 || cleanSum.Failed != 0 {
		t.Fatalf("summary after disarm: %+v, want 2 simulated", cleanSum)
	}
	for _, row := range clean {
		if row.Err != nil || row.Time <= 0 {
			t.Errorf("post-disarm row: %+v", row)
		}
	}
}

// TestBadRequestsAreRejected pins the validation surface: unknown axis
// values and malformed bodies are 400s with the CLI's error text, not
// silently-defaulted grids.
func TestBadRequestsAreRejected(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()

	cases := []struct {
		req  numaws.GridRequest
		want string
	}{
		{numaws.GridRequest{Benches: []string{"nope"}}, "no benchmark named"},
		{numaws.GridRequest{Topologies: []string{"weird"}}, "unknown topology"},
		{numaws.GridRequest{Policies: []string{"fifo?"}}, "unknown policy"},
		{numaws.GridRequest{Scale: "medium"}, "unknown scale"},
		{numaws.GridRequest{Benches: []string{"fib"}, Scale: "small", Seeds: []int64{0}}, "seed 0 is reserved"},
		{numaws.GridRequest{Benches: []string{"fib"}, Scale: "small", Workers: []int{99}}, "out of range"},
		{numaws.GridRequest{Benches: []string{"fib"}, Topologies: []string{"2x4"}, Scale: "small", Seeds: []int64{1, 1}},
			"duplicate seeds entry 1"},
	}
	for _, tc := range cases {
		_, err := numaws.QueryGrid(t.Context(), hs.URL, tc.req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("request %+v: error %v, want mention of %q", tc.req, err, tc.want)
		}
	}

	// Unknown JSON fields are a client bug, not a silent ignore.
	resp, err := http.Post(hs.URL+"/v1/grid", "application/json",
		strings.NewReader(`{"benchs":["fib"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// GET on the grid endpoint names the allowed method.
	resp, err = http.Get(hs.URL + "/v1/grid")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/grid: status %d Allow %q, want 405 with Allow: POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestStatuszReportsCountersAndCorruption drives the observability
// surface: /healthz answers, /v1/axes lists the accepted axis values, and
// /statusz accounts for the traffic — including torn-tail corruption
// found when the store was opened (satellite of the resume-surfacing
// work: the service reports store damage, not just logs it).
func TestStatuszReportsCountersAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	srv1, hs1 := newService(t, path, 4)
	if _, sum := collect(t, hs1.URL, smallGrid()); sum.Simulated != 5 {
		t.Fatalf("seed query: %+v", sum)
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-record, as a crash would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newService(t, path, 4)
	defer srv2.Close()

	var st struct {
		Grids     uint64 `json:"grids"`
		Rows      uint64 `json:"rows"`
		CacheHits uint64 `json:"cache_hits"`
		Simulated uint64 `json:"simulated"`
		Store     struct {
			Records int `json:"records"`
			Corrupt int `json:"corrupt_lines_skipped"`
		} `json:"store"`
	}
	getJSON(t, hs2.URL+"/statusz", &st)
	if st.Store.Records != 4 || st.Store.Corrupt != 1 {
		t.Errorf("statusz store after torn tail: %+v, want 4 records and 1 corrupt line", st.Store)
	}

	// One query: 4 rows from the healed store, the torn one re-simulated.
	if _, sum := collect(t, hs2.URL, smallGrid()); sum.Cached != 4 || sum.Simulated != 1 {
		t.Fatalf("query over healed store: %+v, want 4 cached + 1 simulated", sum)
	}
	getJSON(t, hs2.URL+"/statusz", &st)
	if st.Grids != 1 || st.Rows != 5 || st.CacheHits != 4 || st.Simulated != 1 {
		t.Errorf("statusz counters: %+v", st)
	}

	resp, err := http.Get(hs2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz: %d %q", resp.StatusCode, body)
	}

	var ax struct {
		Benches  []string `json:"benches"`
		Policies []string `json:"policies"`
		Scales   []string `json:"scales"`
	}
	getJSON(t, hs2.URL+"/v1/axes", &ax)
	if len(ax.Benches) == 0 || len(ax.Policies) == 0 {
		t.Errorf("axes missing values: %+v", ax)
	}
	if !reflect.DeepEqual(ax.Scales, []string{"small", "full"}) {
		t.Errorf("axes scales: %v", ax.Scales)
	}
}

// TestStatuszCountsEachTupleOnce queries one tuple cold, then again: the
// store counts one miss for the simulation and one hit for the repeat,
// not a second lookup per simulated tuple.
func TestStatuszCountsEachTupleOnce(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()
	req := numaws.GridRequest{
		Benches: []string{"fib"}, Topologies: []string{"2x4"},
		Workers: []int{2}, Seeds: []int64{1}, Scale: "small",
	}
	if _, sum := collect(t, hs.URL, req); sum.Simulated != 1 {
		t.Fatalf("cold query: %+v, want 1 simulated", sum)
	}
	if _, sum := collect(t, hs.URL, req); sum.Cached != 1 {
		t.Fatalf("warm query: %+v, want 1 cached", sum)
	}
	var st wire.Status
	getJSON(t, hs.URL+"/statusz", &st)
	if st.Store.Puts != 1 || st.Store.Hits != 1 || st.Store.Misses != 1 {
		t.Errorf("statusz store: puts=%d hits=%d misses=%d, want 1/1/1",
			st.Store.Puts, st.Store.Hits, st.Store.Misses)
	}
	if st.Rows != 2 || st.CacheHits != 1 || st.Simulated != 1 {
		t.Errorf("statusz counters: rows=%d cache_hits=%d simulated=%d, want 2/1/1",
			st.Rows, st.CacheHits, st.Simulated)
	}
}

// flushRecorder records, at each Flush, how many NDJSON lines the body
// holds.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (r *flushRecorder) Flush() {
	r.flushedAt = append(r.flushedAt, bytes.Count(r.Body.Bytes(), []byte("\n")))
}

// TestStoredRowsStreamFirstInOneFlush queries a grid whose tuples are
// partly stored: every stored row goes out before the first simulated
// row, all of them under one flush, then each simulated row under its own
// flush, then the trailer under one more.
func TestStoredRowsStreamFirstInOneFlush(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()
	req := numaws.GridRequest{
		Benches: []string{"fib"}, Topologies: []string{"2x4"},
		Workers: []int{2}, Seeds: []int64{3, 1}, Scale: "small",
	}
	if _, sum := collect(t, hs.URL, req); sum.Simulated != 2 {
		t.Fatalf("prefill: %+v, want 2 simulated", sum)
	}

	req.Seeds = []int64{1, 2, 3, 4, 5}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d events, want 5 rows and a trailer:\n%s", len(lines), rec.Body)
	}
	var seeds []int64
	for i, ln := range lines[:5] {
		var ev wire.Event[wire.GridSummary]
		if err := json.Unmarshal([]byte(ln), &ev); err != nil || ev.Row == nil {
			t.Fatalf("event %d is not a row (%v): %s", i, err, ln)
		}
		if want := i < 2; ev.Row.Cached != want {
			t.Errorf("event %d (seed %d): cached %v, want %v", i, ev.Row.Seed, ev.Row.Cached, want)
		}
		seeds = append(seeds, ev.Row.Seed)
	}
	if want := []int64{1, 3, 2, 4, 5}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("row seeds in stream order %v, want %v (stored rows in expansion order first)", seeds, want)
	}
	var ev wire.Event[wire.GridSummary]
	if err := json.Unmarshal([]byte(lines[5]), &ev); err != nil || ev.Done == nil {
		t.Fatalf("last event is not the trailer (%v): %s", err, lines[5])
	}
	if s := *ev.Done; s.Rows != 5 || s.Cached != 2 || s.Simulated != 3 {
		t.Errorf("trailer %+v, want 5 rows: 2 cached, 3 simulated", s)
	}
	if want := []int{2, 3, 4, 5, 6}; !reflect.DeepEqual(rec.flushedAt, want) {
		t.Errorf("flushes after line counts %v, want %v", rec.flushedAt, want)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
