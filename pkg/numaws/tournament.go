package numaws

// The policy tournament's public face: every registered scheduling policy
// — built-ins and RegisterPolicy hooks alike — runs the same benchmark x
// topology grid and comes back ranked by how close it stays to the best
// completion time of every cell. The CLI's tournament subcommand and the
// sweep service's /v1/tournament endpoint are shells over the same
// machinery.

import (
	"context"

	"repro/internal/harness"
	"repro/pkg/numaws/results"
)

// TournamentCell is one cell of a ranked tournament entry: one
// (benchmark, topology) completion time and its ratio to the cell's best
// (see results.TournamentCell).
type TournamentCell = results.TournamentCell

// TournamentEntry is one policy's ranked tournament outcome.
type TournamentEntry = results.TournamentEntry

// Tournament is a complete ranked policy tournament: the grid axes and one
// entry per registered policy, best score first (see results.Tournament).
type Tournament = results.Tournament

// Tournament runs every registered scheduling policy over the benchmark x
// topology grid and ranks them. benches empty means the session's whole
// suite; topologies nil or empty means the session's own machine, and
// otherwise follows WithTopology's forms (presets or SOCKETSxCORES). Every
// cell runs at its machine's full core count and is averaged over the
// session's seeds (WithSeeds), so machines of different sizes compete on
// their whole-machine behavior. Two names of one machine ("uniform" and
// "1x32") are an error naming both, since the machine's cells would count
// twice in every score. Any cell's failure aborts the tournament — a
// ranking with missing cells would compare incomparables.
func (s *Session) Tournament(ctx context.Context, topologies []string, benches ...string) (Tournament, error) {
	specs, err := s.subset(benches)
	if err != nil {
		return Tournament{}, err
	}
	machines := []harness.Machine{{Name: s.cfg.topology, Top: s.top}}
	if len(topologies) > 0 {
		if machines, err = harness.Machines(topologies); err != nil {
			return Tournament{}, err
		}
	}
	t, err := harness.Tournament(ctx, specs, machines, harness.RegisteredPolicies(), s.cache, s.options())
	if err != nil {
		return Tournament{}, facadeErr(err)
	}
	return t, nil
}
