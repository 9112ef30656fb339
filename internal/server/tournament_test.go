// End-to-end tests for POST /v1/tournament, driven through the facade's
// QueryTournament streaming client like a real consumer.
package server_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/pkg/numaws"
)

// smallTournament is the suite's standard contest: three policies over one
// cheap benchmark on a small machine, averaged over two seeds.
func smallTournament() numaws.TournamentRequest {
	return numaws.TournamentRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Policies:   []string{"cilk", "numaws", "steal-half"},
		Seeds:      []int64{1, 2},
		Scale:      "small",
	}
}

func collectTournament(t *testing.T, url string, req numaws.TournamentRequest) ([]numaws.GridRow, numaws.TournamentSummary) {
	t.Helper()
	var rows []numaws.GridRow
	sum, err := numaws.QueryTournament(t.Context(), url, req, func(row numaws.GridRow) {
		rows = append(rows, row)
	})
	if err != nil {
		t.Fatal(err)
	}
	sortRows(rows)
	return rows, sum
}

// TestTournamentRanksAndCaches is the endpoint's acceptance test: a cold
// tournament simulates every (policy, bench, topology, seed) cell, trails
// a fully-ordered deterministic ranking, and a warm rerun reproduces the
// ranking byte for byte from the store alone — proven by arming a panic
// on every simulation.
func TestTournamentRanksAndCaches(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	rows, cold := collectTournament(t, hs.URL, smallTournament())
	if cold.Rows != 6 || cold.Simulated != 6 || cold.Cached != 0 || cold.Failed != 0 {
		t.Fatalf("cold summary: %+v, want 6 rows all simulated", cold)
	}
	if len(rows) != 6 {
		t.Fatalf("cold tournament streamed %d rows, want 6", len(rows))
	}
	for _, row := range rows {
		if row.Time <= 0 || row.P != 8 {
			t.Errorf("implausible tournament row (every cell runs the whole machine): %+v", row)
		}
	}
	if len(cold.Ranking) != 3 {
		t.Fatalf("ranking has %d entries, want 3: %+v", len(cold.Ranking), cold.Ranking)
	}
	seen := map[string]bool{}
	for i, e := range cold.Ranking {
		if e.Rank != i+1 {
			t.Errorf("entry %d has rank %d, want sequential ranks", i, e.Rank)
		}
		if i > 0 && e.Score < cold.Ranking[i-1].Score {
			t.Errorf("ranking not ascending by score: %+v", cold.Ranking)
		}
		if e.Score < 1 {
			t.Errorf("score %v < 1; scores are normalized to the cell best", e.Score)
		}
		seen[e.Policy] = true
	}
	for _, p := range smallTournament().Policies {
		if !seen[p] {
			t.Errorf("policy %q missing from ranking %+v", p, cold.Ranking)
		}
	}
	if w := cold.Ranking[0]; w.Score != 1 {
		// One benchmark on one machine: the winner won its only cells.
		t.Errorf("winner score %v, want exactly 1 on a single-cell-per-policy grid", w.Score)
	}

	// Any simulation now panics; the ranking must come from the store.
	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	defer faultinject.Disarm()

	_, warm := collectTournament(t, hs.URL, smallTournament())
	if warm.Simulated != 0 || warm.Cached != 6 || warm.Failed != 0 {
		t.Fatalf("warm summary: %+v, want 6 rows all cached", warm)
	}
	if !reflect.DeepEqual(warm.Ranking, cold.Ranking) {
		t.Errorf("warm ranking diverged:\n cold %+v\n warm %+v", cold.Ranking, warm.Ranking)
	}
}

// TestTournamentDefaultsToEveryRegisteredPolicy leaves the policies axis
// empty: the contest covers the full registry — including any policy
// registered through the facade by this test binary.
func TestTournamentDefaultsToEveryRegisteredPolicy(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	req := numaws.TournamentRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Seeds:      []int64{1},
		Scale:      "small",
	}
	_, sum := collectTournament(t, hs.URL, req)
	all := numaws.Policies()
	if sum.Failed != 0 || len(sum.Ranking) != len(all) {
		t.Fatalf("summary %+v: want a ranking over all %d registered policies %v", sum, len(all), all)
	}
	got := make([]string, len(sum.Ranking))
	for i, e := range sum.Ranking {
		got[i] = e.Policy
	}
	sort.Strings(got)
	want := append([]string(nil), all...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ranked policies %v, want the registry %v", got, want)
	}
}

// TestTournamentRejectsBadRequests pins the endpoint's validation: a
// duplicated axis entry, seeds included, would double cells under the
// ranking, so it is a 400 up front, and unknown axis values fail like
// grid requests do.
func TestTournamentRejectsBadRequests(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()

	cases := []struct {
		req  numaws.TournamentRequest
		want string
	}{
		{numaws.TournamentRequest{Policies: []string{"cilk", "cilk"}}, `duplicate policies entry "cilk"`},
		{numaws.TournamentRequest{Benches: []string{"fib", "fib"}}, `duplicate benches entry "fib"`},
		{numaws.TournamentRequest{Topologies: []string{"2x4", "2x4"}}, `duplicate topologies entry "2x4"`},
		{numaws.TournamentRequest{Benches: []string{"fib"}, Topologies: []string{"2x4"}, Seeds: []int64{1, 1}, Scale: "small"},
			"duplicate seeds entry 1"},
		// Duplicates on two axes always name the first axis in the fixed
		// order benches, topologies, policies.
		{numaws.TournamentRequest{Benches: []string{"fib", "fib"}, Policies: []string{"cilk", "cilk"}},
			`duplicate benches entry "fib"`},
		{numaws.TournamentRequest{Benches: []string{"nope"}}, "no benchmark named"},
		{numaws.TournamentRequest{Policies: []string{"fifo?"}}, "unknown policy"},
		{numaws.TournamentRequest{Scale: "medium"}, "unknown scale"},
	}
	for _, tc := range cases {
		_, err := numaws.QueryTournament(t.Context(), hs.URL, tc.req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("request %+v: error %v, want mention of %q", tc.req, err, tc.want)
		}
	}
}

// TestTournamentWithFailuresIsUnranked arms a panic on a cold store: the
// failed rows stream in band with their err fields, the summary counts
// them, and the ranking is omitted — a ranking over missing cells would
// compare incomparables.
func TestTournamentWithFailuresIsUnranked(t *testing.T) {
	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	defer srv.Close()

	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	defer faultinject.Disarm()

	req := numaws.TournamentRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Policies:   []string{"cilk", "numaws"},
		Seeds:      []int64{1},
		Scale:      "small",
	}
	rows, sum := collectTournament(t, hs.URL, req)
	if sum.Rows != 2 || sum.Failed != 2 {
		t.Fatalf("summary under injection: %+v, want 2 failed rows", sum)
	}
	if sum.Ranking != nil {
		t.Errorf("failed tournament carries a ranking: %+v", sum.Ranking)
	}
	for _, row := range rows {
		if row.Err == nil {
			t.Errorf("failed run streamed without err: %+v", row)
		}
	}
}

// TestAxesListFacadeRegisteredPolicy pins the registration seam at the
// service boundary: a policy registered through the facade shows up on
// GET /v1/axes next to the built-ins, so remote clients discover it the
// same way local sessions do.
func TestAxesListFacadeRegisteredPolicy(t *testing.T) {
	const name = "axes-probe"
	err := numaws.RegisterPolicy(numaws.PolicyDef{
		Name: name,
		Victim: func(r numaws.Rand, v numaws.PolicyView) int {
			return v.PickUniform(r)
		},
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}

	srv, hs := newService(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	defer srv.Close()

	var ax struct {
		Policies []string `json:"policies"`
	}
	getJSON(t, hs.URL+"/v1/axes", &ax)
	found := false
	for _, p := range ax.Policies {
		found = found || p == name
	}
	if !found {
		t.Fatalf("/v1/axes policies %v missing facade-registered %q", ax.Policies, name)
	}

	// And the axis value is live: the registered policy competes in a
	// tournament addressed by its name.
	_, sum := collectTournament(t, hs.URL, numaws.TournamentRequest{
		Benches:    []string{"fib"},
		Topologies: []string{"2x4"},
		Policies:   []string{"cilk", name},
		Seeds:      []int64{1},
		Scale:      "small",
	})
	if sum.Failed != 0 || len(sum.Ranking) != 2 {
		t.Fatalf("tournament with facade policy: %+v", sum)
	}
	if got := fmt.Sprintf("%s/%s", sum.Ranking[0].Policy, sum.Ranking[1].Policy); !strings.Contains(got, name) {
		t.Errorf("ranking %q does not include %q", got, name)
	}
}
