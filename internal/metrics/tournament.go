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

// CellTime is one raw tournament measurement: policy Policy completed
// Bench on Topology in TP cycles (averaged over the protocol's seeds).
type CellTime struct {
	Policy   string
	Bench    string
	Topology string
	TP       int64
}

// NewTournament ranks raw cells into a tournament. Every policy must carry
// exactly one measurement per (bench, topology) cell of the grid spanned
// by the cells — a missing or duplicated cell is an error, because a
// ranking over unequal grids would silently compare incomparables. Axis
// and policy orders follow first appearance in cells; the returned entries
// are sorted by ascending score, ties broken by policy name, so the
// ranking is deterministic for deterministic inputs.
func NewTournament(cells []CellTime) (results.Tournament, error) {
	var t results.Tournament
	var pols []string
	type cellKey struct{ bench, topo string }
	seenBench := map[string]bool{}
	seenTopo := map[string]bool{}
	seenPol := map[string]bool{}
	tp := map[string]map[cellKey]int64{}
	for _, c := range cells {
		if !seenBench[c.Bench] {
			seenBench[c.Bench] = true
			t.Benches = append(t.Benches, c.Bench)
		}
		if !seenTopo[c.Topology] {
			seenTopo[c.Topology] = true
			t.Topologies = append(t.Topologies, c.Topology)
		}
		if !seenPol[c.Policy] {
			seenPol[c.Policy] = true
			pols = append(pols, c.Policy)
			tp[c.Policy] = map[cellKey]int64{}
		}
		k := cellKey{c.Bench, c.Topology}
		if _, dup := tp[c.Policy][k]; dup {
			return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q measured cell (%s, %s) twice",
				c.Policy, c.Bench, c.Topology)
		}
		if c.TP <= 0 {
			return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q cell (%s, %s) has non-positive TP %d",
				c.Policy, c.Bench, c.Topology, c.TP)
		}
		tp[c.Policy][k] = c.TP
	}
	if len(pols) == 0 {
		return results.Tournament{}, fmt.Errorf("metrics: tournament: no cells")
	}
	// The cell's best time across policies is the normalization base.
	best := map[cellKey]int64{}
	for _, pol := range pols {
		for _, b := range t.Benches {
			for _, topo := range t.Topologies {
				k := cellKey{b, topo}
				v, ok := tp[pol][k]
				if !ok {
					return results.Tournament{}, fmt.Errorf("metrics: tournament: policy %q is missing cell (%s, %s)",
						pol, b, topo)
				}
				if cur, ok := best[k]; !ok || v < cur {
					best[k] = v
				}
			}
		}
	}
	for _, pol := range pols {
		e := results.TournamentEntry{Policy: pol}
		logSum := 0.0
		for _, b := range t.Benches {
			for _, topo := range t.Topologies {
				k := cellKey{b, topo}
				norm := float64(tp[pol][k]) / float64(best[k])
				logSum += math.Log(norm)
				e.Cells = append(e.Cells, results.TournamentCell{
					Bench: b, Topology: topo, TP: tp[pol][k], Norm: norm,
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
