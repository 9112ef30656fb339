package numaws

// The sweep service's streaming clients. The wire schema itself is
// declared once, in pkg/numaws/wire, which the server encodes and these
// clients decode; the facade re-exports its types under their public
// names as aliases.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/pkg/numaws/wire"
)

// GridRequest asks a sweep service for the cross product of the given
// experiment axes — the same axes the CLI takes (see wire.GridRequest).
type GridRequest = wire.GridRequest

// GridRow is one completed run streamed by the service, in completion
// order (see wire.GridRow).
type GridRow = wire.GridRow

// GridRowError is a contained run failure on the wire.
type GridRowError = wire.GridRowError

// GridSummary trails a grid stream: how the rows broke down.
type GridSummary = wire.GridSummary

// TournamentRequest asks a sweep service to rank scheduling policies over
// a benchmark × topology grid (see wire.TournamentRequest).
type TournamentRequest = wire.TournamentRequest

// TournamentRank is one ranked policy of a tournament summary.
type TournamentRank = wire.TournamentRank

// TournamentSummary trails a tournament stream: the grid counts plus the
// ranking, which is omitted when any cell failed.
type TournamentSummary = wire.TournamentSummary

// QueryGrid streams a grid request against a running sweep service
// (`numaws serve`) at the given base URL, invoking onRow (which may be
// nil) for each row as the service completes it, and returns the trailing
// summary. A stream that ends without a summary — the service aborted the
// grid mid-stream or died — is an error; rows already delivered through
// onRow remain valid, since each stands alone. Cancelling ctx abandons
// the stream; the service cancels only this client's uncached work.
func QueryGrid(ctx context.Context, server string, req GridRequest, onRow func(GridRow)) (GridSummary, error) {
	return query[GridSummary](ctx, server, "/v1/grid", "query", req, onRow)
}

// QueryTournament streams a tournament request against a running sweep
// service, invoking onRow (which may be nil) for each run as the service
// completes it, and returns the trailing summary with the ranking. The
// rows are the same shape grid streams use. A stream that ends without a
// summary is an error, exactly as in QueryGrid.
func QueryTournament(ctx context.Context, server string, req TournamentRequest, onRow func(GridRow)) (TournamentSummary, error) {
	return query[TournamentSummary](ctx, server, "/v1/tournament", "tournament", req, onRow)
}

// query POSTs req to server+path and decodes the NDJSON answer: rows go
// to onRow as they arrive, and the trailing wire.Event's Done is the
// result. op names the call in errors.
func query[S any](ctx context.Context, server, path, op string, req any, onRow func(GridRow)) (S, error) {
	var zero S
	fail := func(err error) (S, error) { return zero, fmt.Errorf("numaws: %s: %w", op, err) }
	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(server, "/")+path, bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fail(fmt.Errorf("server said %s: %s", resp.Status, strings.TrimSpace(string(msg))))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wire.Event[S]
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended without its summary (the server aborted it)")
			}
			return fail(err)
		}
		if ev.Row != nil && onRow != nil {
			onRow(*ev.Row)
		}
		if ev.Done != nil {
			return *ev.Done, nil
		}
	}
}
