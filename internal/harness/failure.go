package harness

// The failure-containment layer. One run of a measurement grid can die
// four ways — panic (a buggy registered benchmark or an engine invariant
// violation), deadline interrupt, grid cancellation, verification
// mismatch — and none of them may take the grid down with it. This file
// defines the taxonomy (RunError / FailKind), the single designated
// recovery boundary (contain — the only recover() in the module outside
// the strand coroutine's teardown guard, enforced by numaws-vet's
// panicsafe analyzer), and the deterministic retry loop (attemptRun) that
// re-runs transient failures and refuses to re-run deterministic ones.
//
// Resource discipline under failure: the per-run bodies in harness.go
// settle every held resource in deferred code so the settlement happens on
// the panic unwind path too. A run that did not complete its simulation
// quarantines its arena (never handed back to the free list — its engine
// state is suspect mid-unwind) and Discards its workload lease; a run that
// completed but failed verification returns the arena (the engine
// finished cleanly) but still Discards the instance (its data mutations
// are unverified). Only a fully successful run Releases its instance back
// to the input pool. workloads.PoolCounters counts the quarantines.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// FailKind classifies a contained run failure, deciding retryability:
// timeouts and cancellations are transient (the same run can succeed on a
// quieter machine or a fresh attempt), panics and verification mismatches
// are deterministic (the simulator is a pure function of the run key, so
// re-running reproduces the failure byte for byte).
type FailKind int

// The failure taxonomy.
const (
	KindPanic   FailKind = iota // the run panicked; never retried
	KindVerify                  // result verification failed; never retried
	KindTimeout                 // Options.RunTimeout expired; retryable
	KindCancel                  // the grid's context was cancelled; retryable in principle, but the grid is going down
)

// String names the kind (the journal/export vocabulary).
func (k FailKind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindVerify:
		return "verify"
	case KindTimeout:
		return "timeout"
	case KindCancel:
		return "cancel"
	}
	return fmt.Sprintf("failkind(%d)", int(k))
}

// runKey identifies the failing run inside a RunError.
type runKey struct {
	bench  string
	policy string // "" for serial runs
	p      int
	seed   int64
	serial bool
}

// RunError is a contained run failure: the run's identity, the failure
// classification, and the evidence (panic value plus stack, or the
// underlying error). The measurement protocols convert it into an error
// row; only grid-level failures (cancellation, journal I/O) abort a sweep.
type RunError struct {
	Bench  string
	Policy string // "" for serial runs
	P      int
	Seed   int64
	Serial bool
	Kind   FailKind
	// Panic is the recovered panic value (KindPanic).
	Panic any
	// Stack is the goroutine stack captured at the recovery boundary
	// (KindPanic only).
	Stack []byte
	// Err is the underlying error: the verification failure, or the
	// deadline/cancellation context error.
	Err error
	// Attempts is how many attempts were made in total, retries included.
	Attempts int
}

// Transient reports whether the failure may be retried: it did not come
// from the run's own deterministic behavior.
func (e *RunError) Transient() bool { return e.Kind == KindTimeout || e.Kind == KindCancel }

// detail is the kind-specific part of the message.
func (e *RunError) detail() string {
	switch e.Kind {
	case KindPanic:
		// The kind already says "panic"; the detail is the panic value.
		return fmt.Sprint(e.Panic)
	case KindTimeout:
		return fmt.Sprintf("deadline exceeded (%d attempt(s))", e.Attempts)
	}
	if e.Err != nil {
		return e.Err.Error()
	}
	return e.Kind.String()
}

// Error implements error.
func (e *RunError) Error() string {
	mode := e.Policy
	if e.Serial {
		mode = "serial"
	}
	return fmt.Sprintf("harness: run %s [%s P=%d seed=%d] failed (%s): %s",
		e.Bench, mode, e.P, e.Seed, e.Kind, e.detail())
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// RowError converts the failure into the metrics layer's export shape —
// also what the facade converts into its public RunFailure.
func (e *RunError) RowError() *metrics.RowError {
	return &metrics.RowError{
		Bench: e.Bench, Policy: e.Policy, P: e.P, Seed: e.Seed,
		Kind: e.Kind.String(), Msg: e.detail(),
	}
}

// contain is the designated recovery boundary of the harness: the ONE
// place a run's panic stops unwinding (numaws-vet's panicsafe analyzer
// rejects recover() anywhere else in the module). It executes one attempt
// of one run and converts a panic into a classified *RunError — engine
// deadline interrupts (sched.ErrInterrupted) become KindTimeout, or
// KindCancel when the grid's own context is already dead; everything else
// is KindPanic with the stack captured here, at the point of recovery.
// Errors returned by run (verify failures already typed by the run body,
// context errors) pass through untouched.
func contain(parent context.Context, key runKey, run func() (*core.Report, error)) (rep *core.Report, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		re := &RunError{
			Bench: key.bench, Policy: key.policy, P: key.p, Seed: key.seed, Serial: key.serial,
		}
		if pe, ok := p.(error); ok && errors.Is(pe, sched.ErrInterrupted) {
			re.Kind, re.Err = KindTimeout, pe
			if parent != nil && parent.Err() != nil {
				re.Kind, re.Err = KindCancel, parent.Err()
			}
		} else {
			re.Kind, re.Panic, re.Stack = KindPanic, p, debug.Stack()
		}
		rep, err = nil, re
	}()
	return run()
}

// attemptRun executes run under the containment boundary with the
// per-attempt deadline of opt.RunTimeout and the bounded retry policy of
// opt.Retries. Retry is deterministic by construction: the budget is an
// attempt count (no wall-clock backoff — each attempt is already bounded
// by the deadline), only transient failures are retried, and every attempt
// checks out fresh resources (the failed attempt's instance and arena were
// quarantined on the way out), so a run that succeeds on attempt N is
// byte-identical to one that succeeds on attempt 1. Grid cancellation
// always wins: once the parent context is dead, its error is returned
// unchanged, preserving the protocols' pinned cancellation contract.
func attemptRun(ctx context.Context, key runKey, opt Options, run func(context.Context) (*core.Report, error)) (*core.Report, error) {
	for attempt := 1; ; attempt++ {
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if opt.RunTimeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, opt.RunTimeout)
		}
		rep, err := contain(ctx, key, func() (*core.Report, error) { return run(rctx) })
		cancel()
		if err == nil {
			return rep, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var re *RunError
		if errors.As(err, &re) {
			re.Attempts = attempt
			if re.Transient() && attempt <= opt.Retries {
				continue
			}
		}
		return nil, err
	}
}

// interruptFor adapts a context to the engine's (and the serial elision's)
// poll hook. Contexts that can never expire install no hook at all, so the
// golden path simulates with zero per-event overhead — and either way an
// uninterrupted run is byte-identical, because the hook never touches
// simulation state.
func interruptFor(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}
