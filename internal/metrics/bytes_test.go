package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// The fixture is JSON over the measurement types' Go field names, decoded
// into whatever type each writer accepts (decodeFor infers it from the
// writer's signature), so the pinned bytes below depend only on the
// writers, not on where the row types are declared. encoding/json matches
// keys case-insensitively, so the names also decode into the types that
// carry json tags (the failure, the tournament). The failure carries its
// text under both spellings the field has had (Msg, Message); the decoder
// fills whichever the type declares.
const (
	fixtureRows = `[
	{"Name": "heat", "Input": "128x128x8/8 rows", "P": 32, "TS": 1000,
	 "Cilk": {"T1": 1100, "TP": 200, "WP": 1500, "SP": 300, "IP": 400},
	 "NUMAWS": {"T1": 1050, "TP": 100, "WP": 1200, "SP": 150, "IP": 250}},
	{"Name": "cg", "Input": "1024x16, n=16", "P": 32,
	 "Err": {"Bench": "cg", "Policy": "numaws", "P": 32, "Seed": 2, "Kind": "verify",
	         "Msg": "result \"x\" mismatch", "Message": "result \"x\" mismatch"}}
]`
	fixtureSeries = `[{"Name": "heat", "P": [1, 8, 32], "TP": [1000, 150, 50]}]`
	fixtureSweeps = `[{"Bench": "fib", "Topology": "2x4", "Sockets": 2, "Cores": 8,
	  "P": [1, 4, 8], "TP": [900, 300, 160]}]`
	fixtureTournament = `{"Benches": ["heat", "fib"], "Topologies": ["2x4"], "Entries": [
	{"Rank": 1, "Policy": "numaws", "Score": 1, "Cells": [
		{"Bench": "heat", "Topology": "2x4", "TP": 100, "Norm": 1},
		{"Bench": "fib", "Topology": "2x4", "TP": 40, "Norm": 1}]},
	{"Rank": 2, "Policy": "cilk", "Score": 1.118033988749895, "Cells": [
		{"Bench": "heat", "Topology": "2x4", "TP": 125, "Norm": 1.25},
		{"Bench": "fib", "Topology": "2x4", "TP": 40, "Norm": 1}]}
]}`
)

// decodeFor decodes js into the value type write accepts.
func decodeFor[T any](t *testing.T, write func(io.Writer, T) error, js string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal([]byte(js), &v); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return v
}

// render runs write over the fixture and returns its bytes.
func render[T any](t *testing.T, write func(io.Writer, T) error, js string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, decodeFor(t, write, js)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExportBytes pins the exact JSON and CSV bytes of every export
// writer: a healthy row and an error row, a series, a sweep and a
// two-entry tournament. The round-trip tests check meaning; this one
// checks that no refactor moves a byte.
func TestExportBytes(t *testing.T) {
	export := `{"Rows": ` + fixtureRows + `, "Series": ` + fixtureSeries +
		`, "Sweeps": ` + fixtureSweeps + `, "Tournament": ` + fixtureTournament + `}`
	for _, c := range []struct {
		name, got, want string
	}{
		{"WriteExport", render(t, WriteExport, export), wantExportJSON},
		{"WriteRowsCSV", render(t, WriteRowsCSV, fixtureRows), wantRowsCSV},
		{"WriteSeriesCSV", render(t, WriteSeriesCSV, fixtureSeries), wantSeriesCSV},
		{"WriteSweepsCSV", render(t, WriteSweepsCSV, fixtureSweeps), wantSweepsCSV},
		{"WriteTournamentCSV", render(t, WriteTournamentCSV, fixtureTournament), wantTournamentCSV},
	} {
		if c.got != c.want {
			t.Errorf("%s bytes changed:\n got: %q\nwant: %q", c.name, c.got, c.want)
		}
	}
}

const wantExportJSON = `{
  "rows": [
    {
      "name": "heat",
      "input": "128x128x8/8 rows",
      "p": 32,
      "ts": 1000,
      "cilk": {
        "t1": 1100,
        "tp": 200,
        "wp": 1500,
        "sp": 300,
        "ip": 400,
        "spawn_overhead": 1.1,
        "scalability": 5.5,
        "work_inflation": 1.3636363636363635
      },
      "numaws": {
        "t1": 1050,
        "tp": 100,
        "wp": 1200,
        "sp": 150,
        "ip": 250,
        "spawn_overhead": 1.05,
        "scalability": 10.5,
        "work_inflation": 1.1428571428571428
      }
    },
    {
      "name": "cg",
      "input": "1024x16, n=16",
      "p": 32,
      "ts": 0,
      "cilk": {
        "t1": 0,
        "tp": 0,
        "wp": 0,
        "sp": 0,
        "ip": 0,
        "spawn_overhead": 0,
        "scalability": 0,
        "work_inflation": 0
      },
      "numaws": {
        "t1": 0,
        "tp": 0,
        "wp": 0,
        "sp": 0,
        "ip": 0,
        "spawn_overhead": 0,
        "scalability": 0,
        "work_inflation": 0
      },
      "error": {
        "bench": "cg",
        "policy": "numaws",
        "p": 32,
        "seed": 2,
        "kind": "verify",
        "msg": "result \"x\" mismatch"
      }
    }
  ],
  "series": [
    {
      "name": "heat",
      "points": [
        {
          "p": 1,
          "tp": 1000,
          "speedup": 1
        },
        {
          "p": 8,
          "tp": 150,
          "speedup": 6.666666666666667
        },
        {
          "p": 32,
          "tp": 50,
          "speedup": 20
        }
      ]
    }
  ],
  "sweeps": [
    {
      "bench": "fib",
      "topology": "2x4",
      "sockets": 2,
      "cores": 8,
      "points": [
        {
          "p": 1,
          "tp": 900,
          "speedup": 1
        },
        {
          "p": 4,
          "tp": 300,
          "speedup": 3
        },
        {
          "p": 8,
          "tp": 160,
          "speedup": 5.625
        }
      ]
    }
  ],
  "tournament": {
    "benches": [
      "heat",
      "fib"
    ],
    "topologies": [
      "2x4"
    ],
    "entries": [
      {
        "rank": 1,
        "policy": "numaws",
        "score": 1,
        "cells": [
          {
            "bench": "heat",
            "topology": "2x4",
            "tp": 100,
            "norm": 1
          },
          {
            "bench": "fib",
            "topology": "2x4",
            "tp": 40,
            "norm": 1
          }
        ]
      },
      {
        "rank": 2,
        "policy": "cilk",
        "score": 1.118033988749895,
        "cells": [
          {
            "bench": "heat",
            "topology": "2x4",
            "tp": 125,
            "norm": 1.25
          },
          {
            "bench": "fib",
            "topology": "2x4",
            "tp": 40,
            "norm": 1
          }
        ]
      }
    ]
  }
}
`

const wantRowsCSV = `name,input,p,ts,cilk_t1,cilk_tp,cilk_wp,cilk_sp,cilk_ip,cilk_spawn_overhead,cilk_scalability,cilk_work_inflation,numaws_t1,numaws_tp,numaws_wp,numaws_sp,numaws_ip,numaws_spawn_overhead,numaws_scalability,numaws_work_inflation,error
heat,128x128x8/8 rows,32,1000,1100,200,1500,300,400,1.1,5.5,1.3636363636363635,1050,100,1200,150,250,1.05,10.5,1.1428571428571428,
cg,"1024x16, n=16",32,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"cg [numaws P=32 seed=2]: verify: result ""x"" mismatch"
`

const wantSeriesCSV = `name,p,tp,speedup
heat,1,1000,1
heat,8,150,6.666666666666667
heat,32,50,20
`

const wantSweepsCSV = `bench,topology,sockets,cores,p,tp,speedup
fib,2x4,2,8,1,900,1
fib,2x4,2,8,4,300,3
fib,2x4,2,8,8,160,5.625
`

const wantTournamentCSV = `rank,policy,score,bench,topology,tp,norm
1,numaws,1,heat,2x4,100,1
1,numaws,1,fib,2x4,40,1
2,cilk,1.118033988749895,heat,2x4,125,1.25
2,cilk,1.118033988749895,fib,2x4,40,1
`
