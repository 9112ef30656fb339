package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/pkg/numaws/wire"
)

// TestHugeGridRejectedCheaply sends a 9 KB grid request whose axes
// multiply out to 2.25 million runs. It must be a 400 naming the limit,
// and rejecting it must cost about what decoding its own axes costs —
// allocation that grows with the cross product would be hundreds of
// megabytes.
func TestHugeGridRejectedCheaply(t *testing.T) {
	s := &Server{maxRuns: 4096}
	req := wire.GridRequest{Benches: []string{"fib"}, Topologies: []string{"2x4"}, Scale: "small"}
	for i := range 1500 {
		req.Workers = append(req.Workers, 1+i%8)
		req.Seeds = append(req.Seeds, int64(i+1))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds this server's limit") {
		t.Fatalf("status %d, body %q; want 400 naming the limit", rec.Code, rec.Body.String())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte request, 2.25M-run grid: rejected after %d bytes allocated", len(body), alloc)
	if alloc > 1<<20 {
		t.Errorf("rejecting the grid allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestGridAtLimitAccepted pins the boundary: a grid of exactly maxRuns
// runs, serial rows included, expands; one more run is rejected.
func TestGridAtLimitAccepted(t *testing.T) {
	s := &Server{maxRuns: 6}
	req := wire.GridRequest{
		Benches: []string{"fib"}, Topologies: []string{"2x4"}, Scale: "small",
		Seeds: []int64{1, 2, 3, 4, 5}, Serial: true,
	}
	g, err := s.expand(req)
	if err != nil || len(g.runs) != 6 {
		t.Fatalf("grid of 6 at limit 6: %v, error %v", g, err)
	}
	req.Seeds = append(req.Seeds, 6)
	if _, err := s.expand(req); err == nil || !strings.Contains(err.Error(), "exceeds this server's limit of 6") {
		t.Fatalf("grid of 7 at limit 6: error %v, want the limit", err)
	}
}

// FuzzGridRequest feeds arbitrary bodies through the handler's decode and
// expand. Whatever the bytes, expand must not panic, must stay within
// the server's limit, and on success must return exactly the cross
// product of the request's axes (each defaulted the way expand documents),
// none of which repeats a value.
func FuzzGridRequest(f *testing.F) {
	s := &Server{maxRuns: 64}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.GridRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		g, err := s.expand(req)
		if err != nil {
			return
		}
		if len(g.runs) > s.maxRuns {
			t.Fatalf("%d runs, over the limit of %d", len(g.runs), s.maxRuns)
		}
		if twice(req.Benches) || twice(req.Topologies) || twice(req.Policies) || twice(req.Workers) || twice(req.Seeds) {
			t.Fatalf("accepted a request that repeats an axis value: %+v", req)
		}
		sc := harness.ScaleFull
		if req.Scale == "small" {
			sc = harness.ScaleSmall
		}
		axis := func(n, dflt int) int {
			if n == 0 {
				return dflt
			}
			return n
		}
		perMachine := axis(len(req.Policies), 1) * axis(len(req.Workers), 1) * axis(len(req.Seeds), 1)
		if req.Serial {
			perMachine++
		}
		want := axis(len(req.Benches), len(harness.Specs(sc))) * axis(len(req.Topologies), 1) * perMachine
		if len(g.runs) != want {
			t.Fatalf("%d runs, want the axis product %d", len(g.runs), want)
		}
	})
}

// twice reports whether vals holds some value at two indices.
func twice[T comparable](vals []T) bool {
	for i := range vals {
		for j := range i {
			if vals[i] == vals[j] {
				return true
			}
		}
	}
	return false
}
