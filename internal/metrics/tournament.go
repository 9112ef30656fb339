package metrics

// The policy-tournament surface: every registered scheduling policy runs
// the same benchmark x topology grid, and the policies are ranked by how
// close each stays to the best completion time of every cell. The score is
// the geometric mean over cells of TP / best-TP-in-cell, so 1.0 means the
// policy won every cell and the ranking is scale-free across benchmarks
// whose absolute makespans differ by orders of magnitude.

import (
	"fmt"
	"math"
	"sort"

	"repro/pkg/numaws/results"
)

// CellTime is one tournament run: policy Policy completed Bench on
// Topology in TP cycles under one of the protocol's seeds.
type CellTime struct {
	Policy   string
	Bench    string
	Topology string
	TP       int64
}

// NewTournament is the one fold from a tournament's runs to its ranking.
// A (policy, bench, topology) cell's time is the integer mean (sum / n) of
// its runs' TP. Every policy must hold every (bench, topology) cell of the
// grid spanned by the runs, and every cell the same number of runs — a
// missing cell or a cell averaged over more seeds than its neighbours is
// an error, because a ranking over unequal grids would silently compare
// incomparables. Axis and policy orders follow first appearance in runs;
// the returned entries are sorted by ascending score, ties broken by
// policy name, so the ranking is deterministic for deterministic inputs.
func NewTournament(runs []CellTime) (results.Tournament, error) {
	var t results.Tournament
	var pols []string
	type cellKey struct{ pol, bench, topo string }
	type acc struct{ sum, n int64 }
	seenBench := map[string]bool{}
	seenTopo := map[string]bool{}
	seenPol := map[string]bool{}
	agg := map[cellKey]acc{}
	for _, r := range runs {
		if !seenBench[r.Bench] {
			seenBench[r.Bench] = true
			t.Benches = append(t.Benches, r.Bench)
		}
		if !seenTopo[r.Topology] {
			seenTopo[r.Topology] = true
			t.Topologies = append(t.Topologies, r.Topology)
		}
		if !seenPol[r.Policy] {
			seenPol[r.Policy] = true
			pols = append(pols, r.Policy)
		}
		if r.TP <= 0 {
			return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q cell (%s, %s) has non-positive TP %d",
				r.Policy, r.Bench, r.Topology, r.TP)
		}
		k := cellKey{r.Policy, r.Bench, r.Topology}
		a := agg[k]
		a.sum += r.TP
		a.n++
		agg[k] = a
	}
	if len(pols) == 0 {
		return results.Tournament{}, fmt.Errorf("metrics: tournament: no cells")
	}
	// Every cell must hold as many runs as the first run's cell. A cell's
	// mean is its time; the best time across policies in a (bench,
	// topology) cell is the normalization base.
	want := agg[cellKey{runs[0].Policy, runs[0].Bench, runs[0].Topology}].n
	type gridKey struct{ bench, topo string }
	best := map[gridKey]int64{}
	for _, pol := range pols {
		for _, b := range t.Benches {
			for _, topo := range t.Topologies {
				k := cellKey{pol, b, topo}
				a, ok := agg[k]
				if !ok {
					return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q is missing cell (%s, %s)",
						pol, b, topo)
				}
				if a.n != want {
					return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q cell (%s, %s) holds %d runs, want %d",
						pol, b, topo, a.n, want)
				}
				v := a.sum / a.n
				if cur, ok := best[gridKey{b, topo}]; !ok || v < cur {
					best[gridKey{b, topo}] = v
				}
			}
		}
	}
	for _, pol := range pols {
		e := results.TournamentEntry{Policy: pol}
		logSum := 0.0
		for _, b := range t.Benches {
			for _, topo := range t.Topologies {
				a := agg[cellKey{pol, b, topo}]
				v := a.sum / a.n
				norm := float64(v) / float64(best[gridKey{b, topo}])
				logSum += math.Log(norm)
				e.Cells = append(e.Cells, results.TournamentCell{
					Bench: b, Topology: topo, TP: v, Norm: norm,
				})
			}
		}
		e.Score = math.Exp(logSum / float64(len(e.Cells)))
		t.Entries = append(t.Entries, e)
	}
	sort.SliceStable(t.Entries, func(i, j int) bool {
		a, b := t.Entries[i], t.Entries[j]
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.Policy < b.Policy
	})
	for i := range t.Entries {
		t.Entries[i].Rank = i + 1
	}
	return t, nil
}

// TournamentTable renders the ranked tournament; it forwards to
// results.Tournament.Table for the benchmark driver (bench/grid.go).
func TournamentTable(t *results.Tournament) string { return t.Table() }
