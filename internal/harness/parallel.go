package harness

// This file decomposes the measurement protocols into independent jobs for
// the internal/exec worker pool. Each job is one full simulation with its
// own workload and runtime; jobs write their measured totals into
// pre-allocated slots, and the slots are folded into rows in canonical
// spec/platform/seed order after the pool drains, so the aggregate is
// byte-identical for every Jobs value. Completed jobs are additionally
// streamed through the emitter (Options.OnRun) in completion order, which
// is what Session.Each builds on.
//
// Failure containment happens at this layer's seam: a job whose run comes
// back as a *RunError records the failure on its spec (lowest submission
// index wins, so the reported failure is deterministic for a deterministic
// fault) and returns nil to the pool — the grid proceeds, and the spec
// folds into an error row. Only grid-level errors (cancellation, journal
// I/O) propagate into the pool and abort the sweep.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/pkg/numaws/results"
)

// resultOf reduces a run report to its measured totals: exactly what the
// row fold consumes and what the journal persists, so a replayed run is
// indistinguishable from a simulated one.
func resultOf(rep *core.Report) journal.Result {
	res := journal.Result{Time: rep.Time}
	if rep.Sched != nil {
		res.Work = rep.Sched.WorkTotal()
		res.Sched = rep.Sched.SchedTotal()
		res.Idle = rep.Sched.IdleTotal()
	}
	return res
}

// journaler adapts Options.Journal/Options.Resume for the submission loop.
// A nil journaler (no journal, no resume) is valid and inert. Its records
// are keyed by KeyFor, the same content address the sweep service's store
// uses.
type journaler struct {
	w      *journal.Writer
	resume map[journal.Key]journal.Result
}

func newJournaler(opt Options) *journaler {
	if opt.Journal == nil && opt.Resume == nil {
		return nil
	}
	return &journaler{w: opt.Journal, resume: opt.Resume}
}

// lookup reports the journaled result for a key, if resuming and present.
func (j *journaler) lookup(k journal.Key) (journal.Result, bool) {
	if j == nil {
		return journal.Result{}, false
	}
	res, ok := j.resume[k]
	return res, ok
}

// append durably journals one completed run. An I/O failure here is a
// grid-level error: the journal's whole point is that recorded rows are
// trustworthy, so a grid that cannot record stops.
func (j *journaler) append(k journal.Key, res journal.Result) error {
	if j == nil || j.w == nil {
		return nil
	}
	return j.w.Write(k, res)
}

// platformRuns holds one platform's measured totals for one spec: the
// one-worker run plus one P-worker run per scheduler seed.
type platformRuns struct {
	t1    journal.Result
	seeds []journal.Result
}

// specRuns holds every slot needed to assemble one results.Row, plus the
// spec's recorded failure (if any run of the spec failed).
type specRuns struct {
	ts       journal.Result
	baseline platformRuns // sched.Cilk, the classic work-stealing column
	policy   platformRuns // opt.Policy, the NUMA-aware column

	mu      sync.Mutex
	fail    *RunError
	failIdx int
}

// recordFailure keeps the contained failure with the lowest submission
// index — the first in canonical order — so the error row reports
// deterministically no matter how pool workers raced.
func (r *specRuns) recordFailure(idx int, re *RunError) {
	r.mu.Lock()
	if r.fail == nil || idx < r.failIdx {
		r.fail, r.failIdx = re, idx
	}
	r.mu.Unlock()
}

// submit schedules the full Fig. 7/Fig. 8 protocol for one spec on the
// pool: TS, then T1 and the per-seed TP runs on both platforms. idx
// advances one slot per run (replayed or simulated) and orders failures
// across specs in canonical order (TS first, then baseline T1, baseline
// seeds, policy T1, policy seeds). Runs found in the resume journal fill
// their slot immediately — emitted with RunMeta.Replayed set — and submit
// no job.
func (r *specRuns) submit(ctx context.Context, pool *exec.Pool, em *emitter, jr *journaler, idx *int, spec Spec, opt Options) {
	// Each run is named by its key: KeyFor normalizes the serial axes, and
	// the emitted RunMeta reads its identity back from the key. Baseline
	// is deliberately absent from the key: the two columns of a
	// cilk-vs-cilk comparison measure the identical simulation, and the
	// journal dedups by content.
	submit := func(slot *journal.Result, pol sched.Policy, o Options, serial, baseline bool) {
		myIdx := *idx
		*idx++
		key := KeyFor(spec, pol, o, serial)
		meta := RunMeta{Bench: spec.Name, Policy: key.Policy, P: key.P, Seed: key.Seed, Serial: serial, Baseline: baseline}
		if res, ok := jr.lookup(key); ok {
			*slot = res
			meta.Replayed = true
			meta.Time = res.Time
			em.emit(meta)
			return
		}
		pool.Submit(ctx, myIdx, func() error {
			var rep *core.Report
			var err error
			if serial {
				rep, err = RunSerial(ctx, spec, o)
			} else {
				rep, err = RunOne(ctx, spec, pol, o)
			}
			if err != nil {
				var re *RunError
				if errors.As(err, &re) && ctx.Err() == nil {
					r.recordFailure(myIdx, re)
					return nil // contained: the grid proceeds, the spec reports an error row
				}
				return err // grid-level: cancellation (or a non-run error) aborts the sweep
			}
			res := resultOf(rep)
			if err := jr.append(key, res); err != nil {
				return err
			}
			*slot = res
			meta.Time = res.Time
			em.emit(meta)
			return nil
		})
	}

	submit(&r.ts, nil, opt, true, false)
	for pi, pol := range []sched.Policy{sched.Cilk, opt.Policy} {
		// Column position, not policy identity: with Policy: sched.Cilk the
		// comparison degenerates to cilk-vs-cilk, and both columns must
		// still be populated.
		pr := &r.baseline
		if pi == 1 {
			pr = &r.policy
		}
		pr.seeds = make([]journal.Result, opt.Seeds)
		o1 := opt
		o1.P = 1
		submit(&pr.t1, pol, o1, false, pi == 0)
		for s := 0; s < opt.Seeds; s++ {
			o := opt
			o.Seed = opt.Seed + int64(s)
			submit(&pr.seeds[s], pol, o, false, pi == 0)
		}
	}
}

// result folds one platform's totals into the averaged PlatformResult.
func (p *platformRuns) result(seeds int) results.PlatformResult {
	var pr results.PlatformResult
	pr.T1 = p.t1.Time
	pr.W1 = p.t1.Work
	for _, rp := range p.seeds {
		pr.TP += rp.Time
		pr.WP += rp.Work
		pr.SP += rp.Sched
		pr.IP += rp.Idle
	}
	n := int64(seeds)
	pr.TP /= n
	pr.WP /= n
	pr.SP /= n
	pr.IP /= n
	return pr
}

// row assembles the spec's row once every job has completed: the folded
// measurements, or an error row when any of the spec's runs failed.
func (r *specRuns) row(spec Spec, opt Options) results.Row {
	if r.fail != nil {
		return results.Row{
			Name:  spec.Name,
			Input: spec.Input,
			P:     opt.P,
			Err:   r.fail.RowError(),
		}
	}
	return results.Row{
		Name:   spec.Name,
		Input:  spec.Input,
		P:      opt.P,
		TS:     r.ts.Time,
		Cilk:   r.baseline.result(opt.Seeds),
		NUMAWS: r.policy.result(opt.Seeds),
	}
}
