package numaws

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/topology"
)

// FuzzPolicyHooks drives a user policy whose Victim and Adapt hooks
// replay fuzzed scripts through a real run. Victim may return a fair
// draw, the thief itself or an out-of-range id; Adapt may write 0,
// negative, NaN, infinite, huge or subnormal weights. The run must end as
// a verified report when every hook call kept its contract, and as a
// *RunError naming the first hook that broke it otherwise: never a hang,
// never a report after a misbehaving hook. The policies are built
// directly, so nothing joins the global registry.
//
// flags: bit 0 Biased, bit 1 Pushes, bit 2 StealHalf, bit 3 arms Adapt
// every 1+every events. Each Victim call takes the next victims byte
// (cycling): below 0x80 a fair draw (PickBiased when odd, else
// PickUniform); otherwise by its low two bits Self, Workers, -1, or the raw
// id b>>2&31. Each Adapt call takes the next adapts byte (cycling): below
// 0x40 it changes nothing; otherwise it writes weightOf(b&15) into hop
// class (b>>4)%len(weights) and reports a change.
func FuzzPolicyHooks(f *testing.F) {
	top, err := topology.Parse("4x2")
	if err != nil {
		f.Fatal(err)
	}
	var spec harness.Spec
	for _, sp := range harness.Specs(harness.ScaleSmall) {
		if sp.Name == "fib" {
			spec = sp
		}
	}
	opt := harness.Options{Topology: top, P: top.Cores(), Verify: true}
	f.Add(uint8(0b1001), uint8(3), []byte{1, 2}, []byte{0x47, 0x00})
	f.Fuzz(func(t *testing.T, flags, every uint8, victims, adapts []byte) {
		broke := "" // the first hook that broke its contract
		var nv, na int
		def := PolicyDef{
			Name:      "fuzz-hooks",
			Biased:    flags&1 != 0,
			Pushes:    flags&2 != 0,
			StealHalf: flags&4 != 0,
			Victim: func(r Rand, v PolicyView) int {
				if len(victims) == 0 {
					return v.PickUniform(r)
				}
				b := victims[nv%len(victims)]
				nv++
				var id int
				switch {
				case b < 0x80 && b&1 != 0:
					id = v.PickBiased(r)
				case b < 0x80:
					id = v.PickUniform(r)
				case b&3 == 0:
					id = v.Self()
				case b&3 == 1:
					id = v.Workers()
				case b&3 == 2:
					id = -1
				default:
					id = int(b >> 2 & 31)
				}
				if broke == "" && (id < 0 || id >= v.Workers() || id == v.Self()) {
					broke = "Victim"
				}
				return id
			},
		}
		if flags&8 != 0 {
			def.AdaptEvery = 1 + int64(every)
			def.Adapt = func(_ PolicyObservation, weights []float64) bool {
				if len(adapts) == 0 {
					return false
				}
				b := adapts[na%len(adapts)]
				na++
				if b < 0x40 {
					return false
				}
				w := weightOf(b & 15)
				weights[int(b>>4)%len(weights)] = w
				if broke == "" && (!(w > 0) || w > math.MaxFloat64/float64(opt.P)) {
					broke = "Adapt"
				}
				return true
			}
		}
		rep, err := harness.RunOne(t.Context(), spec, &userPolicy{def: def}, opt)
		if broke == "" {
			if err != nil || rep == nil {
				t.Fatalf("every hook kept its contract, yet the run failed: %v", err)
			}
			return
		}
		var re *harness.RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s broke its contract, yet the run returned report %v, err %v", broke, rep, err)
		}
		if msg := re.Error(); !strings.Contains(msg, broke) {
			t.Fatalf("%s broke its contract, yet the run error does not name it: %s", broke, msg)
		}
	})
}

// weightOf decodes an Adapt weight: the invalid and extreme values first,
// then small positive integers.
func weightOf(code byte) float64 {
	switch code {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return math.MaxFloat64
	case 6:
		return math.SmallestNonzeroFloat64
	}
	return float64(code)
}
