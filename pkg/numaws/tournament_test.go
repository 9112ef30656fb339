package numaws_test

import (
	"bytes"
	"encoding/csv"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/numaws"
)

// TestSessionTournament pins the facade's tournament surface: every
// registered policy — including the binary's facade-registered one — is
// ranked over the requested grid, deterministically, with a renderable
// table and a CSV export.
func TestSessionTournament(t *testing.T) {
	custom := registerTestPolicy(t)
	s, err := numaws.New(numaws.WithScale(numaws.ScaleSmall), numaws.WithTopology("2x4"))
	if err != nil {
		t.Fatal(err)
	}
	tour, err := s.Tournament(t.Context(), []string{"2x4", "1x2"}, "fib", "cilksort")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tour.Benches, []string{"fib", "cilksort"}) ||
		!reflect.DeepEqual(tour.Topologies, []string{"2x4", "1x2"}) {
		t.Errorf("axes: %v / %v", tour.Benches, tour.Topologies)
	}
	all := numaws.Policies()
	if len(tour.Entries) != len(all) {
		t.Fatalf("%d entries for %d registered policies %v", len(tour.Entries), len(all), all)
	}
	found := false
	for i, e := range tour.Entries {
		if e.Rank != i+1 || len(e.Cells) != 4 {
			t.Errorf("entry %d: rank %d with %d cells, want sequential ranks over 4 cells", i, e.Rank, len(e.Cells))
		}
		if i > 0 && e.Score < tour.Entries[i-1].Score {
			t.Errorf("ranking not ascending: %+v", tour.Entries)
		}
		found = found || e.Policy == custom
	}
	if !found {
		t.Errorf("facade-registered %q missing from the tournament", custom)
	}
	if w := tour.Winner(); w != tour.Entries[0].Policy {
		t.Errorf("Winner() = %q, entries lead with %q", w, tour.Entries[0].Policy)
	}

	// Determinism: the same session configuration reproduces the ranking.
	again, err := s.Tournament(t.Context(), []string{"2x4", "1x2"}, "fib", "cilksort")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tour, again) {
		t.Errorf("tournament not deterministic across repeats")
	}

	table := tour.Table()
	if !strings.Contains(table, "Tournament: ") || !strings.Contains(table, "winner "+tour.Winner()) {
		t.Errorf("table missing summary line:\n%s", table)
	}

	var buf bytes.Buffer
	if err := numaws.WriteTournamentCSV(&buf, tour); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(all)*4; len(recs) != want {
		t.Errorf("CSV has %d records, want %d", len(recs), want)
	}
}

// TestServiceTournamentMatchesSession ties the two front ends together:
// the sweep service's ranking over seeds {1, 2} carries exactly the
// scores of a session tournament built WithSeed(1)/WithSeeds(2) over the
// same grid, because both fold their runs through one tournament fold.
func TestServiceTournamentMatchesSession(t *testing.T) {
	benches, topos := []string{"fib", "cilksort"}, []string{"2x4", "1x2"}
	s := small(t, numaws.WithSeed(1), numaws.WithSeeds(2))
	tour, err := s.Tournament(t.Context(), topos, benches...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := numaws.NewServer(numaws.ServerConfig{Store: filepath.Join(t.TempDir(), "store.jsonl"), Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	sum, err := numaws.QueryTournament(t.Context(), hs.URL, numaws.TournamentRequest{
		Benches: benches, Topologies: topos, Seeds: []int64{1, 2}, Scale: "small",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Ranking) != len(tour.Entries) {
		t.Fatalf("service ranked %d policies, session %d", len(sum.Ranking), len(tour.Entries))
	}
	for i, r := range sum.Ranking {
		e := tour.Entries[i]
		if r.Rank != e.Rank || r.Policy != e.Policy || r.Score != e.Score {
			t.Errorf("rank %d: service %s %v, session %s %v", i+1, r.Policy, r.Score, e.Policy, e.Score)
		}
	}
}

// TestSessionTournamentDefaultsToOwnMachine leaves topologies nil: the
// grid has exactly the session's machine as its only topology.
func TestSessionTournamentDefaultsToOwnMachine(t *testing.T) {
	s, err := numaws.New(numaws.WithScale(numaws.ScaleSmall), numaws.WithTopology("2x4"))
	if err != nil {
		t.Fatal(err)
	}
	tour, err := s.Tournament(t.Context(), nil, "fib")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tour.Topologies, []string{"2x4"}) {
		t.Errorf("topologies %v, want the session's own machine", tour.Topologies)
	}
}

// TestSessionTournamentRejectsBadAxes pins the error surface: unknown
// benchmarks and topologies fail with the facade's named-value errors, and
// a machine named twice, even under two spellings, names both.
func TestSessionTournamentRejectsBadAxes(t *testing.T) {
	s, err := numaws.New(numaws.WithScale(numaws.ScaleSmall), numaws.WithTopology("2x4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tournament(t.Context(), nil, "nope"); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown benchmark: err = %v", err)
	}
	if _, err := s.Tournament(t.Context(), []string{"weird"}, "fib"); err == nil ||
		!strings.Contains(err.Error(), "weird") {
		t.Errorf("unknown topology: err = %v", err)
	}
	if _, err := s.Tournament(t.Context(), []string{"2x4", "2x4"}, "fib"); err == nil ||
		!strings.Contains(err.Error(), "2x4") {
		t.Errorf("duplicate topology: err = %v", err)
	}
	if _, err := s.Tournament(t.Context(), []string{"2x4", "uniform", "1x32"}, "fib"); err == nil ||
		!strings.Contains(err.Error(), `"uniform" and "1x32"`) {
		t.Errorf("two names of one machine: err = %v", err)
	}
}
