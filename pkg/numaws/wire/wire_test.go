package wire

import (
	"encoding/json"
	"testing"
)

type wireCase struct {
	name string
	v    any
	want string
}

// wireCases pins the NDJSON the service streams, byte for byte: each
// expected line is what the service emitted before this package existed.
var wireCases = func() []wireCase {
	ranking := []TournamentRank{
		{Rank: 1, Policy: "numaws", Score: 1},
		{Rank: 2, Policy: "cilk", Score: 1.0833333333333333},
		{Rank: 3, Policy: "steal-half", Score: 1.25},
	}
	return []wireCase{
		{
			"row with err",
			Event[GridSummary]{Row: &GridRow{
				Bench: "heat", Input: "n=256", Scale: "small", Topology: "2x4", Policy: "numaws", P: 4, Seed: 2,
				Err: &GridRowError{Kind: "panic", Msg: `harness: heat: boom "q" <&>`},
			}},
			`{"row":{"bench":"heat","input":"n=256","scale":"small","topology":"2x4","policy":"numaws","p":4,"seed":2,"cached":false,"time":0,"work":0,"sched":0,"idle":0,"err":{"kind":"panic","msg":"harness: heat: boom \"q\" \u003c\u0026\u003e"}}}`,
		},
		{
			"cached row",
			Event[GridSummary]{Row: &GridRow{
				Bench: "fib", Input: "n=20", Scale: "small", Topology: "paper-4x8", Policy: "cilk", P: 32, Seed: 1,
				Cached: true, Time: 123456, Work: 2345678, Sched: 3456, Idle: 789,
			}},
			`{"row":{"bench":"fib","input":"n=20","scale":"small","topology":"paper-4x8","policy":"cilk","p":32,"seed":1,"cached":true,"time":123456,"work":2345678,"sched":3456,"idle":789}}`,
		},
		{
			"serial row",
			Event[GridSummary]{Row: &GridRow{
				Bench: "fib", Input: "n=20", Scale: "full", Topology: "2x4", Policy: "serial", P: 1, Seed: 1,
				Serial: true, Time: 1000, Work: 1000,
			}},
			`{"row":{"bench":"fib","input":"n=20","scale":"full","topology":"2x4","policy":"serial","p":1,"seed":1,"serial":true,"cached":false,"time":1000,"work":1000,"sched":0,"idle":0}}`,
		},
		{
			"grid summary",
			Event[GridSummary]{Done: &GridSummary{Rows: 8, Cached: 3, Simulated: 4, Failed: 1}},
			`{"done":{"rows":8,"cached":3,"simulated":4,"failed":1}}`,
		},
		{
			"ranked tournament summary",
			Event[TournamentSummary]{Done: &TournamentSummary{
				GridSummary: GridSummary{Rows: 3, Cached: 3}, Ranking: ranking,
			}},
			`{"done":{"rows":3,"cached":3,"simulated":0,"failed":0,"ranking":[{"rank":1,"policy":"numaws","score":1},{"rank":2,"policy":"cilk","score":1.0833333333333333},{"rank":3,"policy":"steal-half","score":1.25}]}}`,
		},
		{
			"unranked tournament summary",
			Event[TournamentSummary]{Done: &TournamentSummary{
				GridSummary: GridSummary{Rows: 6, Cached: 1, Simulated: 2, Failed: 3},
			}},
			`{"done":{"rows":6,"cached":1,"simulated":2,"failed":3}}`,
		},
		{
			"grid request",
			GridRequest{Benches: []string{"fib"}, Topologies: []string{"2x4"}, Workers: []int{0, 2},
				Seeds: []int64{1, 2}, Scale: "small", Serial: true},
			`{"benches":["fib"],"topologies":["2x4"],"workers":[0,2],"seeds":[1,2],"scale":"small","serial":true}`,
		},
		{
			"tournament request",
			TournamentRequest{Benches: []string{"fib"}, Policies: []string{"cilk", "numaws"}, Seeds: []int64{1}},
			`{"benches":["fib"],"policies":["cilk","numaws"],"seeds":[1]}`,
		},
	}
}()

// TestWireBytes checks every wireCases line against encoding/json, and
// each row line against AppendRowEvent too, so a tag, field-order or
// omitempty change anywhere in the schema — or an appender that drifts
// from it — fails here rather than in a client.
func TestWireBytes(t *testing.T) {
	for _, tc := range wireCases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if ev, ok := tc.v.(Event[GridSummary]); ok && ev.Row != nil {
			if got := AppendRowEvent(nil, ev.Row); string(got) != tc.want+"\n" {
				t.Errorf("%s: AppendRowEvent:\n got %q\nwant %q", tc.name, got, tc.want+"\n")
			}
		}
	}
}
