package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzRowEvent holds the row codec to encoding/json from both sides. For
// a row built from the fuzzed fields, AppendRowEvent must write exactly
// the bytes json.Encoder writes for Event{Row: &r}, and ParseRowEvent
// must accept them and return the row encoding/json decodes from them.
// For the fuzzed line, ParseRowEvent must never panic, a line it accepts
// must unmarshal to the same row, and a declined line must leave the
// destination unchanged. The corpus is seeded with the rows and lines of
// TestWireBytes.
func FuzzRowEvent(f *testing.F) {
	add := func(r GridRow, line string) {
		var kind, msg string
		if r.Err != nil {
			kind, msg = r.Err.Kind, r.Err.Msg
		}
		f.Add(r.Bench, r.Input, r.Scale, r.Topology, r.Policy, r.P, r.Seed, r.Serial, r.Cached,
			r.Time, r.Work, r.Sched, r.Idle, r.Err != nil, kind, msg, []byte(line))
	}
	base := GridRow{Bench: "fib", Input: "n=20", Scale: "small", Topology: "2x4", Policy: "cilk", P: 4, Seed: 1, Time: 5}
	for _, tc := range wireCases {
		r := base
		if ev, ok := tc.v.(Event[GridSummary]); ok && ev.Row != nil {
			r = *ev.Row
		}
		add(r, tc.want)
	}
	// Strings that need each kind of escape, extreme integers, and lines
	// that differ from a canonical one where encoding/json decodes them
	// otherwise (invalid UTF-8), rejects them (an out-of-range integer, a
	// leading zero) or reads another spelling of the same row (-0).
	add(GridRow{Bench: "a<b>&c", Input: "ü\u2028", Scale: "\x00\t\n", Topology: "\xff", Policy: `q"\`,
		P: -1, Seed: math.MinInt64, Time: math.MaxInt64, Err: &GridRowError{Kind: "<", Msg: "\u2029&"}}, "")
	line := string(AppendRowEvent(nil, &base))
	for _, sub := range [][2]string{
		{`"fib"`, "\"\xff\""},
		{`"time":5`, `"time":99999999999999999999`},
		{`"p":4`, `"p":-0`},
		{`"p":4`, `"p":04`},
	} {
		add(base, strings.Replace(line, sub[0], sub[1], 1))
	}
	f.Fuzz(func(t *testing.T, bench, input, scale, topo, policy string, p int, seed int64,
		serial, cached bool, tm, work, sched, idle int64, hasErr bool, kind, msg string, line []byte) {
		r := GridRow{
			Bench: bench, Input: input, Scale: scale, Topology: topo, Policy: policy, P: p, Seed: seed,
			Serial: serial, Cached: cached, Time: tm, Work: work, Sched: sched, Idle: idle,
		}
		if hasErr {
			r.Err = &GridRowError{Kind: kind, Msg: msg}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Event[GridSummary]{Row: &r}); err != nil {
			t.Fatal(err)
		}
		got := AppendRowEvent(nil, &r)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendRowEvent:\n got %q\nwant %q", got, want.Bytes())
		}
		// encoding/json's decode, not r itself: invalid UTF-8 does not
		// survive the round trip.
		var ref Event[GridSummary]
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		var back GridRow
		if !ParseRowEvent(got, &back) {
			t.Fatalf("ParseRowEvent declined its own line %q", got)
		}
		if !reflect.DeepEqual(back, *ref.Row) {
			t.Fatalf("ParseRowEvent(%q) = %+v, want %+v", got, back, *ref.Row)
		}

		// The fuzzed line, parsed into a destination that already holds r,
		// so string reuse is exercised too.
		dst := r
		if !ParseRowEvent(line, &dst) {
			if !reflect.DeepEqual(dst, r) {
				t.Fatalf("declined %q but changed its destination to %+v", line, dst)
			}
			return
		}
		var ev Event[GridSummary]
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", line, err)
		}
		if ev.Row == nil || ev.Done != nil || !reflect.DeepEqual(*ev.Row, dst) {
			t.Fatalf("accepted %q as %+v; encoding/json decodes %+v", line, dst, ev)
		}
	})
}

// BenchmarkRowEvent compares the row codec with encoding/json on a
// typical warm-grid row line.
func BenchmarkRowEvent(b *testing.B) {
	r := GridRow{
		Bench: "cilksort", Input: "n=65536", Scale: "small", Topology: "paper-4x8", Policy: "numaws",
		P: 32, Seed: 7, Cached: true, Time: 1234567, Work: 23456789, Sched: 345678, Idle: 45678,
	}
	line := AppendRowEvent(nil, &r)
	b.Run("encode/json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := enc.Encode(Event[GridSummary]{Row: &r}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			buf = AppendRowEvent(buf[:0], &r)
		}
	})
	b.Run("parse/json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var ev Event[GridSummary]
			if err := json.Unmarshal(line, &ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse/direct", func(b *testing.B) {
		var row GridRow
		b.ReportAllocs()
		for b.Loop() {
			if !ParseRowEvent(line, &row) {
				b.Fatal("declined")
			}
		}
	})
}
