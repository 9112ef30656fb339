// Machine-readable exports of the paper's measurements: the same rows and
// series the tables render, as JSON (one document carrying raw cycle
// counts plus the derived ratios) and CSV (one flat record per benchmark
// row, one per series point), for BENCH_*.json-style perf tracking and
// downstream tooling.
package metrics

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"repro/pkg/numaws/results"
)

// platformJSON is one platform's exported measurements.
type platformJSON struct {
	T1 int64 `json:"t1"`
	TP int64 `json:"tp"`
	WP int64 `json:"wp"`
	SP int64 `json:"sp"`
	IP int64 `json:"ip"`
	// Derived ratios, as reported in the tables.
	SpawnOverhead float64 `json:"spawn_overhead"` // T1/TS
	Scalability   float64 `json:"scalability"`    // T1/TP
	WorkInflation float64 `json:"work_inflation"` // WP/T1
}

func exportPlatform(r results.PlatformResult, ts int64) platformJSON {
	return platformJSON{
		T1: r.T1, TP: r.TP, WP: r.WP, SP: r.SP, IP: r.IP,
		SpawnOverhead: r.SpawnOverhead(ts),
		Scalability:   r.Scalability(),
		WorkInflation: r.WorkInflation(),
	}
}

// rowJSON is one benchmark's exported measurements across both platforms.
type rowJSON struct {
	Name   string              `json:"name"`
	Input  string              `json:"input"`
	P      int                 `json:"p"`
	TS     int64               `json:"ts"`
	Cilk   platformJSON        `json:"cilk"`
	NUMAWS platformJSON        `json:"numaws"`
	Error  *results.RunFailure `json:"error,omitempty"`
}

// seriesPointJSON is one point of a scalability curve.
type seriesPointJSON struct {
	P       int     `json:"p"`
	TP      int64   `json:"tp"`
	Speedup float64 `json:"speedup"` // T1/TP
}

// seriesJSON is one exported scalability curve.
type seriesJSON struct {
	Name   string            `json:"name"`
	Points []seriesPointJSON `json:"points"`
}

// sweepJSON is one exported topology-sweep curve.
type sweepJSON struct {
	Bench    string            `json:"bench"`
	Topology string            `json:"topology"`
	Sockets  int               `json:"sockets"`
	Cores    int               `json:"cores"`
	Points   []seriesPointJSON `json:"points"`
}

// document is the top-level JSON export.
type document struct {
	Rows       []rowJSON           `json:"rows,omitempty"`
	Series     []seriesJSON        `json:"series,omitempty"`
	Sweeps     []sweepJSON         `json:"sweeps,omitempty"`
	Tournament *results.Tournament `json:"tournament,omitempty"`
}

// WriteExport writes every measurement kind in e (any may be empty) as one
// indented JSON document.
func WriteExport(w io.Writer, e results.Export) error {
	rows, series := e.Rows, e.Series
	doc := document{Tournament: e.Tournament}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, rowJSON{
			Name: r.Name, Input: r.Input, P: r.P, TS: r.TS,
			Cilk:   exportPlatform(r.Cilk, r.TS),
			NUMAWS: exportPlatform(r.NUMAWS, r.TS),
			Error:  r.Err,
		})
	}
	for _, s := range series {
		sj := seriesJSON{Name: s.Name}
		speedup := s.Speedup()
		for i, p := range s.P {
			sj.Points = append(sj.Points, seriesPointJSON{P: p, TP: s.TP[i], Speedup: speedup[i]})
		}
		doc.Series = append(doc.Series, sj)
	}
	for _, s := range e.Sweeps {
		sj := sweepJSON{Bench: s.Bench, Topology: s.Topology, Sockets: s.Sockets, Cores: s.Cores}
		speedup := s.Speedup()
		for i, p := range s.P {
			sj.Points = append(sj.Points, seriesPointJSON{P: p, TP: s.TP[i], Speedup: speedup[i]})
		}
		doc.Sweeps = append(doc.Sweeps, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeCSVRecords funnels every CSV table through encoding/csv. This is a
// contract, not a convenience: benchmark Input strings are free-form
// (registry benchmarks choose their own), so fields containing commas,
// quotes or newlines must be quoted per RFC 4180 — pinned by the
// round-trip tests in csv_roundtrip_test.go.
func writeCSVRecords(w io.Writer, records [][]string) error {
	return csv.NewWriter(w).WriteAll(records)
}

// WriteRowsCSV writes one CSV record per benchmark row: identity, raw
// cycle counts, and the derived ratios for both platforms, plus a trailing
// error column — empty for healthy rows, the failed run's diagnosis for
// error rows (whose measurement columns are zero).
func WriteRowsCSV(w io.Writer, rows []results.Row) error {
	records := [][]string{{
		"name", "input", "p", "ts",
		"cilk_t1", "cilk_tp", "cilk_wp", "cilk_sp", "cilk_ip",
		"cilk_spawn_overhead", "cilk_scalability", "cilk_work_inflation",
		"numaws_t1", "numaws_tp", "numaws_wp", "numaws_sp", "numaws_ip",
		"numaws_spawn_overhead", "numaws_scalability", "numaws_work_inflation",
		"error",
	}}
	for _, r := range rows {
		plat := func(p results.PlatformResult) []string {
			return []string{
				strconv.FormatInt(p.T1, 10), strconv.FormatInt(p.TP, 10),
				strconv.FormatInt(p.WP, 10), strconv.FormatInt(p.SP, 10),
				strconv.FormatInt(p.IP, 10),
				formatFloat(p.SpawnOverhead(r.TS)), formatFloat(p.Scalability()),
				formatFloat(p.WorkInflation()),
			}
		}
		rec := []string{r.Name, r.Input, strconv.Itoa(r.P), strconv.FormatInt(r.TS, 10)}
		rec = append(rec, plat(r.Cilk)...)
		rec = append(rec, plat(r.NUMAWS)...)
		if r.Err != nil {
			rec = append(rec, r.Err.Error())
		} else {
			rec = append(rec, "")
		}
		records = append(records, rec)
	}
	return writeCSVRecords(w, records)
}

// WriteSeriesCSV writes scalability curves in long form: one CSV record
// per (series, point).
func WriteSeriesCSV(w io.Writer, series []results.Series) error {
	records := [][]string{{"name", "p", "tp", "speedup"}}
	for _, s := range series {
		speedup := s.Speedup()
		for i, p := range s.P {
			records = append(records, []string{
				s.Name, strconv.Itoa(p), strconv.FormatInt(s.TP[i], 10), formatFloat(speedup[i]),
			})
		}
	}
	return writeCSVRecords(w, records)
}

// WriteSweepsCSV writes topology-sweep curves in long form: one CSV record
// per (bench, topology, point).
func WriteSweepsCSV(w io.Writer, sweeps []results.SweepCurve) error {
	records := [][]string{{"bench", "topology", "sockets", "cores", "p", "tp", "speedup"}}
	for _, s := range sweeps {
		speedup := s.Speedup()
		for i, p := range s.P {
			records = append(records, []string{
				s.Bench, s.Topology, strconv.Itoa(s.Sockets), strconv.Itoa(s.Cores),
				strconv.Itoa(p), strconv.FormatInt(s.TP[i], 10), formatFloat(speedup[i]),
			})
		}
	}
	return writeCSVRecords(w, records)
}

// WriteTournamentCSV writes a ranked tournament in long form: one CSV
// record per (policy, bench, topology) cell, rank-major, carrying the
// entry's score alongside the cell's raw TP and its ratio to the cell's
// best.
func WriteTournamentCSV(w io.Writer, t *results.Tournament) error {
	records := [][]string{{"rank", "policy", "score", "bench", "topology", "tp", "norm"}}
	for _, e := range t.Entries {
		for _, c := range e.Cells {
			records = append(records, []string{
				strconv.Itoa(e.Rank), e.Policy, formatFloat(e.Score),
				c.Bench, c.Topology, strconv.FormatInt(c.TP, 10), formatFloat(c.Norm),
			})
		}
	}
	return writeCSVRecords(w, records)
}

// WriteCSV writes rows and/or series as CSV. When both are present the
// two tables are separated by a blank line, each with its own header —
// a stream for eyeballing, not for strict CSV parsers (the tables have
// different widths); tooling that reads the output back should receive
// one kind per writer (WriteRowsCSV / WriteSeriesCSV).
func WriteCSV(w io.Writer, rows []results.Row, series []results.Series) error {
	if len(rows) > 0 {
		if err := WriteRowsCSV(w, rows); err != nil {
			return err
		}
		if len(series) > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	if len(series) > 0 {
		return WriteSeriesCSV(w, series)
	}
	return nil
}
