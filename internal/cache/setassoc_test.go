package cache

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/memory"
)

// tickLRU is the set-associative cache the recency-ordered setAssoc
// replaced, kept as its oracle: every way carries the tick of its last use,
// a fill takes the first invalid way or else the way with the oldest tick,
// and an invalidation leaves a hole.
type tickLRU struct {
	sets int
	ways int
	tag  []int64  // sets*ways entries; -1 = invalid
	use  []uint64 // LRU timestamps, parallel to tag
	tick uint64
}

func newTickLRU(sets, ways int) *tickLRU {
	c := &tickLRU{sets: sets, ways: ways, tag: make([]int64, sets*ways), use: make([]uint64, sets*ways)}
	c.flush()
	return c
}

func (c *tickLRU) lookup(line int64) bool {
	base := int(line%int64(c.sets)) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tag[base+w] == line {
			c.tick++
			c.use[base+w] = c.tick
			return true
		}
	}
	return false
}

func (c *tickLRU) insert(line int64) (evicted int64) {
	base := int(line%int64(c.sets)) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tag[i] == line {
			c.tick++
			c.use[i] = c.tick
			return -1
		}
		if c.tag[i] == -1 {
			victim = i
			break
		}
		if c.use[i] < c.use[victim] {
			victim = i
		}
	}
	evicted = c.tag[victim]
	c.tag[victim] = line
	c.tick++
	c.use[victim] = c.tick
	return evicted
}

func (c *tickLRU) invalidate(line int64) bool {
	base := int(line%int64(c.sets)) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tag[base+w] == line {
			c.tag[base+w] = -1
			return true
		}
	}
	return false
}

func (c *tickLRU) flush() {
	for i := range c.tag {
		c.tag[i] = -1
	}
}

// recency returns set s's valid tags, most recently used first.
func (c *tickLRU) recency(s int) []int64 {
	base := s * c.ways
	idx := make([]int, 0, c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tag[base+w] != -1 {
			idx = append(idx, base+w)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(c.use[b], c.use[a]) })
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = c.tag[j]
	}
	return out
}

// FuzzSetAssoc drives the recency-ordered setAssoc and the tick-LRU oracle
// with the same lookup/insert/invalidate/flush sequence, on 1-16 ways and
// both power-of-two set counts (masked indexing) and others (modulo). Every
// result must agree, and after every operation each set must hold the
// oracle's valid tags in the oracle's recency order, followed only by
// invalid ways (the touched set after each operation, every set at the
// end). An insert is issued, as the Hierarchy issues it, only after
// a lookup missed.
func FuzzSetAssoc(f *testing.F) {
	// Ops are 3 bytes: the op (1 insert, 0 lookup, 2 invalidate, 15 flush)
	// and a little-endian line.
	f.Add(uint8(1), uint8(0), []byte{ // 1 set x 2 ways
		1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 0, 2, 0, 0, 1, 3, 0, 15, 0, 0, 1, 4, 0})
	f.Add(uint8(3), uint8(3), []byte{ // 4 sets x 4 ways: masked
		1, 1, 0, 1, 5, 0, 1, 9, 0, 1, 13, 0, 0, 5, 0, 1, 17, 0, 2, 9, 0, 1, 21, 0, 0, 13, 0})
	f.Add(uint8(2), uint8(2), []byte{ // 3 sets x 3 ways: modulo
		1, 0, 0, 1, 3, 0, 1, 6, 0, 1, 9, 0, 0, 3, 0, 1, 12, 0, 2, 3, 0, 1, 15, 0, 1, 18, 0})
	f.Add(uint8(15), uint8(127), []byte("a 128-set, 16-way cache driven by arbitrary bytes"))
	f.Add(uint8(7), uint8(6), []byte("a 7-set, 8-way cache driven by arbitrary bytes"))
	f.Fuzz(func(t *testing.T, rawWays, rawSets uint8, ops []byte) {
		ways := 1 + int(rawWays)%16
		sets := 1 + int(rawSets)%130 // 1, 2, 4, ... 128 take the mask; the rest the modulo
		got := newSetAssoc(sets*ways*memory.LineSize, ways)
		if got.sets != sets || got.ways != ways {
			t.Fatalf("geometry %dx%d, want %dx%d", got.sets, got.ways, sets, ways)
		}
		want := newTickLRU(sets, ways)
		lines := 2*sets*ways + 1 // twice the capacity: hits, misses and evictions
		for ; len(ops) >= 3; ops = ops[3:] {
			line := int64(binary.LittleEndian.Uint16(ops[1:]) % uint16(lines))
			switch op := ops[0] % 16; {
			case op == 15:
				got.flush()
				want.flush()
			case op%3 == 0:
				if g, w := got.lookup(line), want.lookup(line); g != w {
					t.Fatalf("lookup(%d) = %v, oracle %v", line, g, w)
				}
			case op%3 == 1:
				g, w := got.lookup(line), want.lookup(line)
				if g != w {
					t.Fatalf("lookup(%d) before insert = %v, oracle %v", line, g, w)
				}
				if !g {
					if ge, we := got.insert(line), want.insert(line); ge != we {
						t.Fatalf("insert(%d) evicted %d, oracle %d", line, ge, we)
					}
				}
			default:
				if g, w := got.invalidate(line), want.invalidate(line); g != w {
					t.Fatalf("invalidate(%d) = %v, oracle %v", line, g, w)
				}
			}
			checkSet(t, got, want, int(line)%sets)
		}
		for s := 0; s < sets; s++ {
			checkSet(t, got, want, s)
		}
	})
}

// checkSet fails unless set s holds the oracle's valid tags in the
// oracle's recency order, followed only by invalid ways.
func checkSet(t *testing.T, got *setAssoc, want *tickLRU, s int) {
	t.Helper()
	set := got.tag[s*got.ways : (s+1)*got.ways]
	order := want.recency(s)
	if !slices.Equal(set[:len(order)], order) {
		t.Fatalf("set %d = %v, oracle recency order %v", s, set, order)
	}
	for _, tag := range set[len(order):] {
		if tag != -1 {
			t.Fatalf("set %d = %v: a tag after the %d valid ways", s, set, len(order))
		}
	}
}
