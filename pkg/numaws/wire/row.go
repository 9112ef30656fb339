package wire

// The row codec: every grid row crosses the wire as one NDJSON line, so
// the row is the one value worth encoding and decoding without
// reflection. The appender writes exactly the bytes encoding/json writes;
// the parser accepts only that layout and declines every other line,
// which the caller hands to encoding/json instead.

import (
	"encoding/json"
	"strconv"
)

// AppendRow appends r as the JSON object json.Marshal produces for it,
// byte for byte (HTML escaping included), without reflection.
func AppendRow(dst []byte, r *GridRow) []byte {
	dst = append(dst, `{"bench":`...)
	dst = appendString(dst, r.Bench)
	dst = append(dst, `,"input":`...)
	dst = appendString(dst, r.Input)
	dst = append(dst, `,"scale":`...)
	dst = appendString(dst, r.Scale)
	dst = append(dst, `,"topology":`...)
	dst = appendString(dst, r.Topology)
	dst = append(dst, `,"policy":`...)
	dst = appendString(dst, r.Policy)
	dst = append(dst, `,"p":`...)
	dst = strconv.AppendInt(dst, int64(r.P), 10)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, r.Seed, 10)
	if r.Serial {
		dst = append(dst, `,"serial":true`...)
	}
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, r.Time, 10)
	dst = append(dst, `,"work":`...)
	dst = strconv.AppendInt(dst, r.Work, 10)
	dst = append(dst, `,"sched":`...)
	dst = strconv.AppendInt(dst, r.Sched, 10)
	dst = append(dst, `,"idle":`...)
	dst = strconv.AppendInt(dst, r.Idle, 10)
	if r.Err != nil {
		dst = append(dst, `,"err":{"kind":`...)
		dst = appendString(dst, r.Err.Kind)
		dst = append(dst, `,"msg":`...)
		dst = appendString(dst, r.Err.Msg)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// AppendRowEvent appends the NDJSON line json.Encoder writes for
// Event{Row: r}: {"row":{…}} and its newline.
func AppendRowEvent(dst []byte, r *GridRow) []byte {
	dst = append(dst, `{"row":`...)
	dst = AppendRow(dst, r)
	return append(dst, "}\n"...)
}

// ParseRowEvent parses a row line laid out as AppendRowEvent writes it
// (its key order, no spaces, integers without a leading zero or "-0"),
// with or without its newline, into *r, and reports whether it did. A
// string with an escape or a non-ASCII byte is decoded by json.Unmarshal.
// It declines, leaving *r unchanged, every other line: another layout, a
// trailer, invalid JSON. A declined line is not necessarily invalid, so
// the caller decodes it with encoding/json, which defines what the stream
// accepts; an accepted line decodes to the same row encoding/json would
// produce.
//
// A string equal to the one *r already holds is reused, not allocated,
// so parsing a stream's rows into one GridRow shares their repeated
// identity fields. Err is always a fresh value or nil.
func ParseRowEvent(line []byte, r *GridRow) bool {
	p := parser{b: line}
	var n GridRow
	p.lit(`{"row":{"bench":`)
	n.Bench = p.str(r.Bench)
	p.lit(`,"input":`)
	n.Input = p.str(r.Input)
	p.lit(`,"scale":`)
	n.Scale = p.str(r.Scale)
	p.lit(`,"topology":`)
	n.Topology = p.str(r.Topology)
	p.lit(`,"policy":`)
	n.Policy = p.str(r.Policy)
	p.lit(`,"p":`)
	n.P = int(p.int(strconv.IntSize))
	p.lit(`,"seed":`)
	n.Seed = p.int(64)
	n.Serial = p.opt(`,"serial":true`)
	p.lit(`,"cached":`)
	n.Cached = p.opt("true")
	if !n.Cached {
		p.lit("false")
	}
	p.lit(`,"time":`)
	n.Time = p.int(64)
	p.lit(`,"work":`)
	n.Work = p.int(64)
	p.lit(`,"sched":`)
	n.Sched = p.int(64)
	p.lit(`,"idle":`)
	n.Idle = p.int(64)
	if p.opt(`,"err":{"kind":`) {
		var e GridRowError
		e.Kind = p.str("")
		p.lit(`,"msg":`)
		e.Msg = p.str("")
		p.lit("}")
		n.Err = &e
	}
	p.lit("}}")
	p.opt("\n")
	if p.bad || len(p.b) > 0 {
		return false
	}
	*r = n
	return true
}

// plain reports whether encoding/json writes byte c of a string as it
// is: printable ASCII other than the quote, the backslash and the HTML
// characters <, > and &, which it escapes.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string. A string of plain bytes is
// copied between quotes; any other goes through json.Marshal, whose
// escaping is the one the wire has always had.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			// Marshalling a string cannot fail.
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// parser consumes a canonical row line front to back. The first mismatch
// sets bad, after which every method consumes nothing and returns zero.
type parser struct {
	b   []byte
	bad bool
}

// lit consumes the literal s.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// opt consumes the literal s if it comes next and reports whether it did.
func (p *parser) opt(s string) bool {
	if p.bad || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// str consumes a JSON string, returning prev when the value equals it. A
// string of plain bytes is sliced out directly; json.Unmarshal decodes one
// with escapes or non-ASCII bytes, as it would the whole line.
func (p *parser) str(prev string) string {
	if p.bad || len(p.b) == 0 || p.b[0] != '"' {
		p.bad = true
		return ""
	}
	decode := false // an escape or a non-ASCII byte: json.Unmarshal decodes
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			tok := p.b[:i+1]
			p.b = p.b[i+1:]
			if !decode {
				if v := tok[1:i]; string(v) != prev {
					return string(v)
				}
				return prev
			}
			var v string
			if json.Unmarshal(tok, &v) != nil {
				p.bad = true
				return ""
			}
			return v
		case c == '\\':
			decode = true
			i++ // the escaped byte cannot end the string
		case !plain(c):
			decode = true
		}
	}
	p.bad = true
	return ""
}

// int consumes an integer as strconv.AppendInt writes it (no leading
// zero, no "-0") that fits in a signed integer of the given bit size.
func (p *parser) int(bits int) int64 {
	if p.bad {
		return 0
	}
	neg := len(p.b) > 0 && p.b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	start := i
	var u uint64
	for ; i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9'; i++ {
		if i-start == 19 { // more digits than any int64 has
			p.bad = true
			return 0
		}
		u = u*10 + uint64(p.b[i]-'0')
	}
	digits := i - start
	limit := uint64(1) << (bits - 1) // |min|; the max is limit-1
	if digits == 0 || (digits > 1 && p.b[start] == '0') || (neg && u == 0) ||
		(neg && u > limit) || (!neg && u >= limit) {
		p.bad = true
		return 0
	}
	p.b = p.b[i:]
	v := int64(u)
	if neg {
		v = -v
	}
	return v
}
