package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/numaws/results"
)

// fourCells is a 2-policy x 2-bench x 1-topology tournament with known
// arithmetic: "a" wins fib (100 vs 200) and loses heat (300 vs 150), "b"
// the reverse, so both score geomean(1, 2) = sqrt(2) and the tie breaks
// on the policy name.
func fourCells() []CellTime {
	return []CellTime{
		{Policy: "a", Bench: "fib", Topology: "2x4", TP: 100},
		{Policy: "a", Bench: "heat", Topology: "2x4", TP: 300},
		{Policy: "b", Bench: "fib", Topology: "2x4", TP: 200},
		{Policy: "b", Bench: "heat", Topology: "2x4", TP: 150},
	}
}

func TestNewTournamentScoresAndRanks(t *testing.T) {
	tour, err := NewTournament([]CellTime{
		{Policy: "slow", Bench: "fib", Topology: "2x4", TP: 220},
		{Policy: "fast", Bench: "fib", Topology: "2x4", TP: 100},
		{Policy: "slow", Bench: "fib", Topology: "4x8", TP: 90},
		{Policy: "fast", Bench: "fib", Topology: "4x8", TP: 45},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tour.Benches, []string{"fib"}) ||
		!reflect.DeepEqual(tour.Topologies, []string{"2x4", "4x8"}) {
		t.Errorf("axes: %v / %v", tour.Benches, tour.Topologies)
	}
	if tour.Winner() != "fast" {
		t.Fatalf("winner %q, want fast", tour.Winner())
	}
	fast, slow := tour.Entries[0], tour.Entries[1]
	if fast.Rank != 1 || slow.Rank != 2 {
		t.Errorf("ranks %d/%d, want 1/2", fast.Rank, slow.Rank)
	}
	if fast.Score != 1 {
		t.Errorf("fast won every cell but scores %v", fast.Score)
	}
	// slow's norms are 2.2 and 2.0; geomean = sqrt(4.4).
	if want := math.Sqrt(2.2 * 2.0); math.Abs(slow.Score-want) > 1e-12 {
		t.Errorf("slow score %v, want %v", slow.Score, want)
	}
	if len(slow.Cells) != 2 || slow.Cells[0].Norm != 2.2 || slow.Cells[1].Norm != 2.0 {
		t.Errorf("slow cells: %+v", slow.Cells)
	}
}

func TestNewTournamentTieBreaksByName(t *testing.T) {
	tour, err := NewTournament(fourCells())
	if err != nil {
		t.Fatal(err)
	}
	if tour.Entries[0].Score != tour.Entries[1].Score {
		t.Fatalf("scores diverge: %+v", tour.Entries)
	}
	if tour.Entries[0].Policy != "a" || tour.Entries[1].Policy != "b" {
		t.Errorf("equal scores must rank by name: %+v", tour.Entries)
	}
}

func TestNewTournamentRejectsBadGrids(t *testing.T) {
	cases := []struct {
		name  string
		cells []CellTime
		want  string
	}{
		{"empty", nil, "no cells"},
		{"unequal run counts", append(fourCells(),
			CellTime{Policy: "a", Bench: "fib", Topology: "2x4", TP: 1}), `cell (heat, 2x4) holds 1 runs, want 2`},
		{"missing cell", fourCells()[:3], "missing cell"},
		{"non-positive time", []CellTime{
			{Policy: "a", Bench: "fib", Topology: "2x4", TP: 0}}, "non-positive TP"},
	}
	for _, tc := range cases {
		if _, err := NewTournament(tc.cells); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// A cell's time is the integer mean of its runs, so two runs per cell
// rank exactly like their pre-averaged cells.
func TestNewTournamentAveragesRuns(t *testing.T) {
	var runs []CellTime
	for _, c := range fourCells() {
		lo, hi := c, c
		lo.TP, hi.TP = c.TP-1, c.TP+2 // (2TP+1)/2 truncates to TP
		runs = append(runs, lo, hi)
	}
	got, err := NewTournament(runs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTournament(fourCells())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two runs per cell:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzTournament folds arbitrary run lists over a small alphabet of
// policies, benches and topologies. The fold must never panic; a
// successful ranking numbers its entries 1..n with every score >= 1; a
// grid whose cells hold unequal run counts, or any non-positive time, is
// an error; and otherwise the fold equals ranking one pre-averaged
// CellTime per cell.
func FuzzTournament(f *testing.F) {
	f.Add([]byte{0, 0, 100, 1, 0, 200})
	f.Add([]byte{0, 0, 100, 0, 0, 101, 1, 0, 200, 1, 0, 199})
	f.Add([]byte{0, 0, 100, 3, 0, 50, 1, 1, 0, 4, 0, 7})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pols := []string{"a", "b", "c"}
		benches := []string{"fib", "heat"}
		topos := []string{"2x4", "4x8"}
		var runs []CellTime
		positive := true
		for i := 0; i+2 < len(data); i += 3 {
			c := data[i]
			r := CellTime{
				Policy:   pols[int(c)%len(pols)],
				Bench:    benches[int(c)/len(pols)%len(benches)],
				Topology: topos[int(c)/(len(pols)*len(benches))%len(topos)],
				TP:       int64(data[i+1])<<8 | int64(data[i+2]),
			}
			positive = positive && r.TP > 0
			runs = append(runs, r)
		}
		got, err := NewTournament(runs)
		if err == nil {
			for i, e := range got.Entries {
				if e.Rank != i+1 || !(e.Score >= 1) {
					t.Fatalf("entry %d: rank %d score %v", i, e.Rank, e.Score)
				}
			}
		}
		type key struct{ pol, bench, topo string }
		var order []key
		sum, n := map[key]int64{}, map[key]int64{}
		for _, r := range runs {
			k := key{r.Policy, r.Bench, r.Topology}
			if n[k] == 0 {
				order = append(order, k)
			}
			sum[k] += r.TP
			n[k]++
		}
		equal := true
		for _, k := range order {
			equal = equal && n[k] == n[order[0]]
		}
		if !positive || !equal {
			if err == nil {
				t.Fatalf("runs %v: ranked, want an error (positive %t, equal counts %t)", runs, positive, equal)
			}
			return
		}
		cells := make([]CellTime, len(order))
		for i, k := range order {
			cells[i] = CellTime{Policy: k.pol, Bench: k.bench, Topology: k.topo, TP: sum[k] / n[k]}
		}
		want, werr := NewTournament(cells)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("runs %v:\n got %+v (%v)\nwant %+v (%v)", runs, got, err, want, werr)
		}
	})
}

func TestTournamentTable(t *testing.T) {
	tour, err := NewTournament(fourCells())
	if err != nil {
		t.Fatal(err)
	}
	got := TournamentTable(&tour)
	for _, want := range []string{
		"Tournament: 2 policies x 2 benchmark(s) x 1 topology(s); winner a (score 1.4142)",
		"geomean over cells",
		"rank  policy",
		"-- 2x4: TP by benchmark (x cell best) --",
		"100 (1.000x)",
		"300 (2.000x)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
}

func TestTournamentExportRoundTrips(t *testing.T) {
	tour, err := NewTournament(fourCells())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExport(&buf, results.Export{Tournament: &tour}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string `json:"schema"`
		Tournament *struct {
			Benches []string `json:"benches"`
			Entries []struct {
				Rank   int     `json:"rank"`
				Policy string  `json:"policy"`
				Score  float64 `json:"score"`
				Cells  []struct {
					Bench string  `json:"bench"`
					TP    int64   `json:"tp"`
					Norm  float64 `json:"norm"`
				} `json:"cells"`
			} `json:"entries"`
		} `json:"tournament"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Tournament == nil || len(doc.Tournament.Entries) != 2 {
		t.Fatalf("exported tournament: %+v", doc.Tournament)
	}
	e := doc.Tournament.Entries[0]
	if e.Rank != 1 || e.Policy != "a" || len(e.Cells) != 2 || e.Cells[0].TP != 100 {
		t.Errorf("first entry: %+v", e)
	}

	// And the export omits the section when absent.
	buf.Reset()
	if err := WriteExport(&buf, results.Export{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "tournament") {
		t.Errorf("empty export mentions tournament:\n%s", buf.String())
	}
}

func TestWriteTournamentCSV(t *testing.T) {
	tour, err := NewTournament(fourCells())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTournamentCSV(&buf, &tour); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // header + 2 policies x 2 cells
		t.Fatalf("%d records, want 5: %v", len(recs), recs)
	}
	if !reflect.DeepEqual(recs[0], []string{"rank", "policy", "score", "bench", "topology", "tp", "norm"}) {
		t.Errorf("header: %v", recs[0])
	}
	if recs[1][0] != "1" || recs[1][1] != "a" || recs[1][3] != "fib" || recs[1][5] != "100" {
		t.Errorf("first data record: %v", recs[1])
	}
	if recs[3][0] != "2" || recs[3][1] != "b" {
		t.Errorf("rank-major order broken: %v", recs[3])
	}
}
