package numaws

// Human-readable renderings and machine-readable exports of the
// measurement types, delegating to internal/metrics so the CLI and any
// embedder print byte-identical artifacts.

import (
	"io"

	"repro/internal/layout"
	"repro/internal/metrics"
)

// Fig3 renders rows as the paper's Fig. 3: total processing time on the
// classic work-stealing baseline normalized to TS, split into work,
// scheduling and idle components.
func Fig3(rows []Row) string { return metrics.Fig3(rows) }

// Table7 renders rows as the paper's Fig. 7 table: TS, then T1 (spawn
// overhead) and TP (scalability) per platform, in virtual cycles.
func Table7(rows []Row) string { return metrics.Table7(rows) }

// Table8 renders rows as the paper's Fig. 8 table: T1, WP (work
// inflation), SP and IP per platform.
func Table8(rows []Row) string { return metrics.Table8(rows) }

// Fig9 renders scalability curves as a table of T1/TP speedups. Like the
// Table7/Table8 headers and the export field names, the rendered heading
// names the paper's NUMA-WS scheduler; when the measuring session was
// built WithPolicy, the curves carry that policy's runs (the CLI prints a
// note on stderr in that case).
func Fig9(series []Series) string { return metrics.Fig9(series) }

// SweepTable renders topology-sweep curves grouped by machine.
func SweepTable(sweeps []SweepCurve) string { return metrics.SweepTable(sweeps) }

// MortonGrid renders the Z-Morton index of every cell of an n x n matrix
// (the paper's Fig. 6(a)); n must be a power of two.
func MortonGrid(n int) string { return layout.Grid(n, layout.Morton, 0) }

// BlockedMortonGrid renders the blocked Z-Morton layout of an n x n matrix
// — block x block tiles in Z-Morton order, row-major inside each tile (the
// paper's Fig. 6(b)).
func BlockedMortonGrid(n, block int) string { return layout.Grid(n, layout.BlockedMorton, block) }

// WriteExport writes every measurement kind in e (any may be empty) as one
// indented JSON document carrying raw cycle counts plus the derived
// ratios.
func WriteExport(w io.Writer, e Export) error { return metrics.WriteExport(w, e) }

// WriteRowsCSV writes one CSV record per benchmark row: identity, raw
// cycle counts, and the derived ratios for both platforms.
func WriteRowsCSV(w io.Writer, rows []Row) error { return metrics.WriteRowsCSV(w, rows) }

// WriteSeriesCSV writes scalability curves in long form: one CSV record
// per (series, point).
func WriteSeriesCSV(w io.Writer, series []Series) error { return metrics.WriteSeriesCSV(w, series) }

// WriteSweepsCSV writes topology-sweep curves in long form: one CSV record
// per (bench, topology, point).
func WriteSweepsCSV(w io.Writer, sweeps []SweepCurve) error { return metrics.WriteSweepsCSV(w, sweeps) }

// WriteTournamentCSV writes a ranked tournament in long form: one CSV
// record per (policy, bench, topology) cell, rank-major.
func WriteTournamentCSV(w io.Writer, t Tournament) error { return metrics.WriteTournamentCSV(w, &t) }

// WriteCSV writes rows and/or series as CSV. When both are present the two
// tables are separated by a blank line, each with its own header — a
// stream for eyeballing, not for strict CSV parsers; tooling should
// receive one kind per writer (WriteRowsCSV / WriteSeriesCSV).
func WriteCSV(w io.Writer, rows []Row, series []Series) error {
	return metrics.WriteCSV(w, rows, series)
}
