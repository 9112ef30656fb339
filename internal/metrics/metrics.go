// Package metrics renders the paper's measurements — the rows, curves and
// rankings declared in pkg/numaws/results — as the Fig. 3, Fig. 7 (table),
// Fig. 8 (table), Fig. 9 and topology-sweep tables, exports them as JSON
// and CSV, and folds a policy tournament's runs into its ranking
// (NewTournament, the one fold behind harness.Tournament and the sweep
// service's tournament trailer). The export encodes the results types
// that carry their own json tags (RunFailure, Tournament) as they are.
package metrics

import (
	"fmt"
	"strings"

	"repro/pkg/numaws/results"
)

// cyc renders a cycle count compactly.
func cyc(v int64) string {
	switch {
	case v >= 10_000_000_000:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// Table7 renders the Fig. 7 table: TS, then T1 (spawn overhead) and TP
// (scalability) per platform. Times are virtual cycles, not seconds — the
// parenthesized ratios are the comparable quantities.
func Table7(rows []results.Row) string {
	var b strings.Builder
	p := 0
	if len(rows) > 0 {
		p = rows[0].P
	}
	fmt.Fprintf(&b, "Fig. 7: execution times (virtual cycles); spawn overhead under T1, scalability under T%d\n", p)
	fmt.Fprintf(&b, "%-12s %-14s %10s | %10s %-8s %10s %-8s | %10s %-8s %10s %-8s\n",
		"benchmark", "input/base", "TS",
		"Cilk T1", "(T1/TS)", fmt.Sprintf("Cilk T%d", p), "(T1/TP)",
		"NWS T1", "(T1/TS)", fmt.Sprintf("NWS T%d", p), "(T1/TP)")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-12s %-14s FAILED: %v\n", r.Name, r.Input, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-12s %-14s %10s | %10s (%.2fx)  %10s (%.2fx)  | %10s (%.2fx)  %10s (%.2fx)\n",
			r.Name, r.Input, cyc(r.TS),
			cyc(r.Cilk.T1), r.Cilk.SpawnOverhead(r.TS), cyc(r.Cilk.TP), r.Cilk.Scalability(),
			cyc(r.NUMAWS.T1), r.NUMAWS.SpawnOverhead(r.TS), cyc(r.NUMAWS.TP), r.NUMAWS.Scalability())
	}
	return b.String()
}

// Table8 renders the Fig. 8 table: T1, W_P (work inflation), S_P, I_P per
// platform.
func Table8(rows []results.Row) string {
	var b strings.Builder
	p := 0
	if len(rows) > 0 {
		p = rows[0].P
	}
	fmt.Fprintf(&b, "Fig. 8: work/scheduling/idle breakdown at P=%d; work inflation (W%d/T1) in parentheses\n", p, p)
	fmt.Fprintf(&b, "%-12s | %10s %10s %-8s %8s %8s | %10s %10s %-8s %8s %8s\n",
		"benchmark",
		"Cilk T1", fmt.Sprintf("W%d", p), "(infl)", fmt.Sprintf("S%d", p), fmt.Sprintf("I%d", p),
		"NWS T1", fmt.Sprintf("W%d", p), "(infl)", fmt.Sprintf("S%d", p), fmt.Sprintf("I%d", p))
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-12s | FAILED: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-12s | %10s %10s (%.2fx)  %8s %8s | %10s %10s (%.2fx)  %8s %8s\n",
			r.Name,
			cyc(r.Cilk.T1), cyc(r.Cilk.WP), r.Cilk.WorkInflation(), cyc(r.Cilk.SP), cyc(r.Cilk.IP),
			cyc(r.NUMAWS.T1), cyc(r.NUMAWS.WP), r.NUMAWS.WorkInflation(), cyc(r.NUMAWS.SP), cyc(r.NUMAWS.IP))
	}
	return b.String()
}

// Fig3 renders the normalized total processing times of the Cilk Plus runs:
// for P=1 the normalized T1, for P=P the work/scheduling/idle components,
// all normalized to TS.
func Fig3(rows []results.Row) string {
	var b strings.Builder
	p := 0
	if len(rows) > 0 {
		p = rows[0].P
	}
	fmt.Fprintf(&b, "Fig. 3: total processing time on Cilk Plus normalized to TS (P=1 and P=%d)\n", p)
	fmt.Fprintf(&b, "%-12s %10s | %10s %10s %10s %10s\n",
		"benchmark", "P=1", fmt.Sprintf("P=%d tot", p), "work", "sched", "idle")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-12s FAILED: %v\n", r.Name, r.Err)
			continue
		}
		ts := float64(r.TS)
		if ts == 0 {
			continue
		}
		w := float64(r.Cilk.WP) / ts
		s := float64(r.Cilk.SP) / ts
		i := float64(r.Cilk.IP) / ts
		fmt.Fprintf(&b, "%-12s %10.2f | %10.2f %10.2f %10.2f %10.2f\n",
			r.Name, float64(r.Cilk.T1)/ts, w+s+i, w, s, i)
	}
	return b.String()
}

// Fig9 renders the scalability curves as a table of T1/TP values.
func Fig9(series []results.Series) string {
	var b strings.Builder
	b.WriteString("Fig. 9: scalability (T1/TP) on NUMA-WS; workers packed onto the fewest sockets\n")
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, p := range series[0].P {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("P=%d", p))
	}
	b.WriteByte('\n')
	for _, s := range series {
		fmt.Fprintf(&b, "%-12s", s.Name)
		for _, sp := range s.Speedup() {
			fmt.Fprintf(&b, " %8.2f", sp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
