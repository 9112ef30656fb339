package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/pkg/numaws/results"
)

func exportFixtures() ([]results.Row, []results.Series) {
	rows := []results.Row{
		{
			Name: "heat", Input: "128x128x8/8 rows", P: 32, TS: 1000,
			Cilk:   results.PlatformResult{T1: 1100, TP: 200, WP: 1500, SP: 300, IP: 400, W1: 1100},
			NUMAWS: results.PlatformResult{T1: 1050, TP: 100, WP: 1200, SP: 150, IP: 250, W1: 1050},
		},
		{
			Name: "cg", Input: "1024x16/n=16", P: 32, TS: 2000,
			Cilk:   results.PlatformResult{T1: 2400, TP: 500, WP: 3000, SP: 600, IP: 700, W1: 2400},
			NUMAWS: results.PlatformResult{T1: 2200, TP: 250, WP: 2500, SP: 300, IP: 350, W1: 2200},
		},
	}
	series := []results.Series{
		{Name: "heat", P: []int{1, 8, 32}, TP: []int64{1000, 150, 50}},
	}
	return rows, series
}

func TestWriteJSONRoundTrips(t *testing.T) {
	rows, series := exportFixtures()
	var buf bytes.Buffer
	if err := WriteExport(&buf, results.Export{Rows: rows, Series: series}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			Name string `json:"name"`
			P    int    `json:"p"`
			TS   int64  `json:"ts"`
			Cilk struct {
				T1            int64   `json:"t1"`
				SpawnOverhead float64 `json:"spawn_overhead"`
				Scalability   float64 `json:"scalability"`
				WorkInflation float64 `json:"work_inflation"`
			} `json:"cilk"`
			NUMAWS struct {
				TP int64 `json:"tp"`
			} `json:"numaws"`
		} `json:"rows"`
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				P       int     `json:"p"`
				TP      int64   `json:"tp"`
				Speedup float64 `json:"speedup"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Rows) != 2 || len(doc.Series) != 1 {
		t.Fatalf("got %d rows, %d series; want 2, 1", len(doc.Rows), len(doc.Series))
	}
	r := doc.Rows[0]
	if r.Name != "heat" || r.TS != 1000 || r.Cilk.T1 != 1100 || r.NUMAWS.TP != 100 {
		t.Errorf("row 0 fields wrong: %+v", r)
	}
	if r.Cilk.SpawnOverhead != 1.1 || r.Cilk.Scalability != 5.5 {
		t.Errorf("derived ratios wrong: overhead=%v scalability=%v", r.Cilk.SpawnOverhead, r.Cilk.Scalability)
	}
	s := doc.Series[0]
	if s.Name != "heat" || len(s.Points) != 3 {
		t.Fatalf("series wrong: %+v", s)
	}
	if s.Points[2].P != 32 || s.Points[2].TP != 50 || s.Points[2].Speedup != 20 {
		t.Errorf("series point wrong: %+v", s.Points[2])
	}
}

func TestWriteJSONOmitsEmptySections(t *testing.T) {
	rows, _ := exportFixtures()
	var buf bytes.Buffer
	if err := WriteExport(&buf, results.Export{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "series") {
		t.Errorf("empty series section should be omitted:\n%s", buf.String())
	}
}

func TestWriteRowsCSV(t *testing.T) {
	rows, _ := exportFixtures()
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want header + 2 rows", len(recs))
	}
	header, rec := recs[0], recs[1]
	if len(header) != 21 || len(rec) != 21 {
		t.Fatalf("header has %d fields, record %d; want 21 (incl. trailing error)", len(header), len(rec))
	}
	if header[len(header)-1] != "error" || rec[len(rec)-1] != "" {
		t.Errorf("trailing error column: header %q value %q, want \"error\" and empty", header[len(header)-1], rec[len(rec)-1])
	}
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return rec[i]
			}
		}
		t.Fatalf("no column %q in %v", name, header)
		return ""
	}
	if col("name") != "heat" || col("ts") != "1000" || col("cilk_t1") != "1100" {
		t.Errorf("wrong identity columns: %v", rec)
	}
	if col("cilk_spawn_overhead") != "1.1" || col("numaws_tp") != "100" {
		t.Errorf("wrong measurement columns: %v", rec)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	_, series := exportFixtures()
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records, want header + 3 points", len(recs))
	}
	want := []string{"heat", "32", "50", "20"}
	got := recs[3]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("last point = %v, want %v", got, want)
		}
	}
}

func TestWriteCSVBothSections(t *testing.T) {
	rows, series := exportFixtures()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows, series); err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(buf.String(), "\n\n")
	if len(parts) != 2 {
		t.Fatalf("want two blank-line-separated CSV tables, got %d:\n%s", len(parts), buf.String())
	}
	if !strings.HasPrefix(parts[0], "name,input,p,ts,") {
		t.Errorf("first table should be rows:\n%s", parts[0])
	}
	if !strings.HasPrefix(parts[1], "name,p,tp,speedup") {
		t.Errorf("second table should be series:\n%s", parts[1])
	}
}
