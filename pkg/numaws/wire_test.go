package numaws

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/numaws/wire"
)

// TestQueryStream feeds QueryGrid hand-made NDJSON and checks the rows it
// delivers against encoding/json's decode of the same lines: canonical
// rows take the direct parser, and everything else — a trailer without its
// newline, a row longer than the reader's buffer, a row spelled another
// way — must come out exactly as encoding/json reads it.
func TestQueryStream(t *testing.T) {
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	row := func(seed int64) GridRow {
		return GridRow{Bench: "heat", Input: "n=256", Scale: "small", Topology: "2x4", Policy: "numaws",
			P: 4, Seed: seed, Cached: true, Time: 1000 + seed, Work: 900, Sched: 60, Idle: 40}
	}
	rowLine := func(r GridRow) string { return line(wire.Event[GridSummary]{Row: &r}) }
	done := line(wire.Event[GridSummary]{Done: &GridSummary{Rows: 2, Cached: 1, Failed: 1}})

	long := row(3)
	long.Cached = false
	long.Err = &GridRowError{Kind: "panic", Msg: strings.Repeat("x", 64<<10) + ` "q" <&> ünïcode`}
	respelled := `{ "row" : {"seed":5, "bench":"h\u0065at", "p":4, "input":"n=256", "scale":"small",` +
		` "topology":"2x4", "policy":"numaws", "cached":true, "time":1005, "work":900, "sched":60, "idle":40} }`

	cases := []struct {
		name    string
		body    string
		rows    []string // the row lines, decoded by encoding/json for the expected rows
		sum     GridSummary
		wantErr string
	}{
		{
			name:    "no trailer",
			body:    rowLine(row(1)) + "\n" + rowLine(row(2)) + "\n",
			rows:    []string{rowLine(row(1)), rowLine(row(2))},
			wantErr: "stream ended without its summary",
		},
		{
			name: "trailer without newline",
			body: rowLine(row(1)) + "\n" + rowLine(row(2)) + "\n" + done,
			rows: []string{rowLine(row(1)), rowLine(row(2))},
			sum:  GridSummary{Rows: 2, Cached: 1, Failed: 1},
		},
		{
			name: "err row longer than the reader buffer",
			body: rowLine(row(1)) + "\n" + rowLine(long) + "\n" + done + "\n",
			rows: []string{rowLine(row(1)), rowLine(long)},
			sum:  GridSummary{Rows: 2, Cached: 1, Failed: 1},
		},
		{
			name: "respelled row",
			body: respelled + "\n\n" + rowLine(row(5)) + "\n" + done + "\n",
			rows: []string{respelled, rowLine(row(5))},
			sum:  GridSummary{Rows: 2, Cached: 1, Failed: 1},
		},
		{
			name:    "garbage line",
			body:    rowLine(row(1)) + "\n" + `{"row":{"bench":` + "\x00\xff}\n" + done + "\n",
			rows:    []string{rowLine(row(1))},
			wantErr: "invalid character",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write([]byte(tc.body))
			}))
			defer hs.Close()
			var got []GridRow
			sum, err := QueryGrid(t.Context(), hs.URL, GridRequest{}, func(r GridRow) { got = append(got, r) })
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("QueryGrid: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("QueryGrid error %v, want one containing %q", err, tc.wantErr)
			}
			if sum != tc.sum {
				t.Errorf("summary %+v, want %+v", sum, tc.sum)
			}
			var want []GridRow
			for _, l := range tc.rows {
				var ev wire.Event[GridSummary]
				if err := json.Unmarshal([]byte(l), &ev); err != nil {
					t.Fatal(err)
				}
				want = append(want, *ev.Row)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rows:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestQueryReusesConnection: the client reads each response to its end,
// so back-to-back queries share one connection instead of dialling anew.
func TestQueryReusesConnection(t *testing.T) {
	done, err := json.Marshal(wire.Event[GridSummary]{Done: &GridSummary{}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(append(done, '\n'))
		w.(http.Flusher).Flush()
		// The response's end (the chunked terminator) reaches the client
		// after the trailer line, as it does after a grid that took time.
		time.Sleep(10 * time.Millisecond)
	}))
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	for i := 0; i < 5; i++ {
		if _, err := QueryGrid(t.Context(), hs.URL, GridRequest{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("5 queries opened %d connections, want 1", n)
	}
}
