package metrics

// The CSV-quoting audit, pinned: benchmark Input strings are free-form
// ("16384x32/n=128" today, but registry benchmarks choose their own) and
// one rename away from containing commas or quotes. The writers go
// through encoding/csv, so such fields must round-trip intact through a
// strict CSV reader — this test is the contract that keeps a naive
// fmt.Fprintf writer from ever sneaking back in.

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/pkg/numaws/results"
)

func TestRowsCSVRoundTripsHostileFields(t *testing.T) {
	rows := []results.Row{
		{
			Name:  `bench,with "quotes"`,
			Input: `16384x32,"q"/n=128`,
			P:     8, TS: 100,
			Cilk:   results.PlatformResult{T1: 110, TP: 25, WP: 80, SP: 5, IP: 15},
			NUMAWS: results.PlatformResult{T1: 105, TP: 20, WP: 70, SP: 4, IP: 6},
		},
		{
			Name:  "plain",
			Input: "has\nnewline and ,comma",
			P:     4, TS: 50,
			Cilk:   results.PlatformResult{T1: 55, TP: 15},
			NUMAWS: results.PlatformResult{T1: 52, TP: 12},
		},
	}
	var b strings.Builder
	if err := WriteRowsCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse back: %v\n%s", err, b.String())
	}
	if len(records) != 1+len(rows) {
		t.Fatalf("%d records, want header + %d rows", len(records), len(rows))
	}
	for i, row := range rows {
		rec := records[1+i]
		if rec[0] != row.Name || rec[1] != row.Input {
			t.Errorf("row %d identity fields = (%q, %q), want (%q, %q)",
				i, rec[0], rec[1], row.Name, row.Input)
		}
	}
	if got := records[1][3]; got != "100" {
		t.Errorf("row 0 ts = %q, want 100 (hostile fields shifted columns?)", got)
	}
}

func TestSweepsCSVRoundTripsHostileFields(t *testing.T) {
	sweeps := []results.SweepCurve{{
		Bench:    `fft,"banded"`,
		Topology: "weird,topo",
		Sockets:  2, Cores: 8,
		P:  []int{1, 8},
		TP: []int64{1000, 200},
	}}
	var b strings.Builder
	if err := WriteSweepsCSV(&b, sweeps); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse back: %v\n%s", err, b.String())
	}
	if len(records) != 3 {
		t.Fatalf("%d records, want header + 2 points", len(records))
	}
	for i, rec := range records[1:] {
		if rec[0] != sweeps[0].Bench || rec[1] != sweeps[0].Topology {
			t.Errorf("point %d identity = (%q, %q), want (%q, %q)",
				i, rec[0], rec[1], sweeps[0].Bench, sweeps[0].Topology)
		}
	}
}

func TestSeriesCSVRoundTripsHostileFields(t *testing.T) {
	series := []results.Series{{Name: `curve,"x"`, P: []int{1, 4}, TP: []int64{100, 30}}}
	var b strings.Builder
	if err := WriteSeriesCSV(&b, series); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse back: %v\n%s", err, b.String())
	}
	if len(records) != 3 || records[1][0] != series[0].Name {
		t.Fatalf("series identity did not round-trip: %+v", records)
	}
}
