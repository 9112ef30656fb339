package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/pkg/numaws/results"
)

func sweepFixtures() []results.SweepCurve {
	return []results.SweepCurve{
		{Bench: "heat", Topology: "paper-4x8", Sockets: 4, Cores: 32,
			P: []int{1, 8, 32}, TP: []int64{1000, 200, 100}},
		{Bench: "heat", Topology: "2x16", Sockets: 2, Cores: 32,
			P: []int{1, 16}, TP: []int64{1000, 125}},
	}
}

func TestWriteExportSweepsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExport(&buf, results.Export{Sweeps: sweepFixtures()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sweeps []struct {
			Bench    string `json:"bench"`
			Topology string `json:"topology"`
			Sockets  int    `json:"sockets"`
			Cores    int    `json:"cores"`
			Points   []struct {
				P       int     `json:"p"`
				TP      int64   `json:"tp"`
				Speedup float64 `json:"speedup"`
			} `json:"points"`
		} `json:"sweeps"`
		Rows   []json.RawMessage `json:"rows"`
		Series []json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 0 || len(doc.Series) != 0 {
		t.Error("empty sections must be omitted")
	}
	if len(doc.Sweeps) != 2 {
		t.Fatalf("%d sweeps, want 2", len(doc.Sweeps))
	}
	s := doc.Sweeps[0]
	if s.Bench != "heat" || s.Topology != "paper-4x8" || s.Sockets != 4 || s.Cores != 32 {
		t.Errorf("sweep identity wrong: %+v", s)
	}
	if len(s.Points) != 3 || s.Points[2].P != 32 || s.Points[2].TP != 100 || s.Points[2].Speedup != 10 {
		t.Errorf("sweep points wrong: %+v", s.Points)
	}
}

func TestWriteSweepsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepsCSV(&buf, sweepFixtures()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 { // header + 3 points + 2 points
		t.Fatalf("%d records, want 6:\n%s", len(recs), buf.String())
	}
	wantHeader := []string{"bench", "topology", "sockets", "cores", "p", "tp", "speedup"}
	for i, h := range wantHeader {
		if recs[0][i] != h {
			t.Fatalf("header = %v, want %v", recs[0], wantHeader)
		}
	}
	if recs[3][1] != "paper-4x8" || recs[3][4] != "32" || recs[3][6] != "10" {
		t.Errorf("last paper-4x8 record = %v", recs[3])
	}
	if recs[5][1] != "2x16" || recs[5][5] != "125" || recs[5][6] != "8" {
		t.Errorf("last 2x16 record = %v", recs[5])
	}
}
