package harness

// Tests for the grid amortization: the workload-input pool, the shared
// serial-reference caches, and the harness's TS memoization. The contract
// under test is the one DESIGN.md states for the hot path — amortization
// must never change a measured quantity, only who pays for input
// construction and reference computation.

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestGridAmortizationByteIdentical drives a (2 policies x 3 P x 2 seeds)
// measurement grid through Measure twice — once pooled, once with
// FreshInputs — and pins both halves of the amortization contract:
//
//   - the pooled grid constructs each workload input exactly once per aware
//     configuration and computes each serial reference exactly once, and
//   - its rows are identical to the fully unamortized grid's.
func TestGridAmortizationByteIdentical(t *testing.T) {
	// refs counts the expected reference computations per benchmark: one
	// memoized TS report each, plus heat's cached verify oracle (computed
	// inside the TS run's verification). lu's verify reproducts the run's
	// own factors against the kept original, which is per-run by design.
	// nqueens adds its verify recount and its leaf table, each once per
	// input.
	for _, tc := range []struct {
		bench string
		refs  uint64
	}{
		{"heat", 2},
		{"lu", 1},
		{"nqueens", 3},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			spec := specByName(t, tc.bench)
			grid := func(fresh bool) []metrics.Row {
				var rows []metrics.Row
				for _, p := range []int{2, 4, 8} {
					row, err := Measure(t.Context(), spec, Options{
						P: p, Seeds: 2, Jobs: 1, Verify: true, FreshInputs: fresh,
					})
					if err != nil {
						t.Fatal(err)
					}
					rows = append(rows, row)
				}
				return rows
			}
			workloads.FlushPools()
			workloads.ResetPoolCounters()
			pooled := grid(false)
			built, reused, refs, quarantined := workloads.PoolCounters()
			if built != 2 {
				t.Errorf("pooled grid constructed %d instances, want 2 (one per aware configuration)", built)
			}
			if reused == 0 {
				t.Error("pooled grid never reused an instance")
			}
			if refs != tc.refs {
				t.Errorf("pooled grid ran %d reference computations, want %d", refs, tc.refs)
			}
			if quarantined != 0 {
				t.Errorf("healthy grid quarantined %d instances, want 0", quarantined)
			}
			fresh := grid(true)
			if !reflect.DeepEqual(pooled, fresh) {
				t.Errorf("pooled grid differs from unamortized grid:\npooled: %+v\nfresh:  %+v", pooled, fresh)
			}
		})
	}
}

// TestPooledRunsVerifyBackToBack is the reuse-safety regression test: two
// consecutive verified runs drawing on one pooled input must both pass for
// every registered benchmark — in particular the ones whose run mutates the
// constructed input in place (lu's elimination, cilksort's in-place sort,
// matmul/rectmul's accumulation into C), which a reused Prepare must
// restore.
func TestPooledRunsVerifyBackToBack(t *testing.T) {
	workloads.FlushPools()
	for _, spec := range Specs(ScaleSmall) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			workloads.ResetPoolCounters()
			opt := Options{P: 4, Verify: true}
			first, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
			if err != nil {
				t.Fatalf("first pooled run: %v", err)
			}
			second, err := RunOne(t.Context(), spec, sched.NUMAWS, opt)
			if err != nil {
				t.Fatalf("second pooled run (reused input): %v", err)
			}
			if _, reused, _, _ := workloads.PoolCounters(); reused == 0 {
				t.Fatal("second run did not draw on the pooled input")
			}
			if first.Time != second.Time {
				t.Errorf("reused input changed the measurement: TP %d then %d", first.Time, second.Time)
			}
		})
	}
}
