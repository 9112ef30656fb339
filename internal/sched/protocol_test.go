package sched

import "testing"

// The tests in this file pin down the paper's Fig. 5 protocol decisions
// one by one, using small scripted computations whose scheduling events are
// fully determined.

// twoPhaseRunner: the root spawns one long-running child earmarked for a
// given place, then a second child, syncs, and returns. It gives a thief a
// deterministic single stealable frame to exercise the steal protocol on.
type twoPhaseRunner struct {
	childPlace int
	childCost  int64
}

type twoPhaseState struct{ step int }

func (r *twoPhaseRunner) Resume(w int, f *Frame) Yield {
	if f.Root {
		st, _ := f.Data.(*twoPhaseState)
		if st == nil {
			st = &twoPhaseState{}
			f.Data = st
		}
		st.step++
		switch st.step {
		case 1, 2:
			child := NewFrame(f, r.childPlace)
			return Yield{Kind: YieldSpawn, Cost: 10, Child: child}
		case 3:
			return Yield{Kind: YieldSync, Cost: 10}
		default:
			return Yield{Kind: YieldReturn, Cost: 10}
		}
	}
	return Yield{Kind: YieldReturn, Cost: r.childCost}
}

func runTwoPhase(t *testing.T, cfg Config, r *twoPhaseRunner) *Stats {
	t.Helper()
	e := NewEngine(cfg, r)
	return e.Run(NewRootFrame(PlaceAny))
}

func TestStolenForeignFrameIsPushedHome(t *testing.T) {
	// Subtrees earmarked for socket 1 must reach socket-1 workers via
	// mailboxes rather than run on thieves' sockets. (The earmarked frame
	// must itself be stealable — i.e. a spawning subtree, not a leaf: under
	// continuation stealing a leaf always runs on its spawner, and only
	// frames that transit deques or syncs can be pushed.)
	cfg := testConfig(16, NUMAWS) // sockets 0 and 1 in use
	cfg.Seed = 3
	r := &treeRunner{fanout: 4, depth: 4, leafCost: 5000, innerCost: 10,
		placeOf: func(i int) int { return 1 }} // everything belongs on socket 1
	st := runTree(t, cfg, r)
	if st.Pushes == 0 {
		t.Errorf("no pushes for a foreign-earmarked computation (steals=%d)", st.Steals)
	}
	if st.LocalResumes == 0 {
		t.Error("earmarked frames never resumed on their designated socket")
	}
	if st.LocalResumes <= st.RemoteResumes {
		t.Errorf("hints not honored: %d local vs %d remote resumes", st.LocalResumes, st.RemoteResumes)
	}
}

func TestHomeFrameNotPushed(t *testing.T) {
	// Earmarked for socket 0, where everything runs at P=8 (one socket):
	// pushing must never trigger.
	cfg := testConfig(8, NUMAWS)
	st := runTwoPhase(t, cfg, &twoPhaseRunner{childPlace: 0, childCost: 50_000})
	if st.Pushes != 0 || st.PushAttempts != 0 {
		t.Errorf("pushed %d times for home-socket computation", st.Pushes)
	}
}

func TestPlaceAnyNeverPushed(t *testing.T) {
	cfg := testConfig(32, NUMAWS)
	st := runTwoPhase(t, cfg, &twoPhaseRunner{childPlace: PlaceAny, childCost: 50_000})
	if st.Pushes != 0 {
		t.Errorf("pushed %d times for @ANY computation", st.Pushes)
	}
}

func TestPushThresholdOverflowTakesFrame(t *testing.T) {
	// Mailbox capacity 1 with every target's mailbox pre-filled is hard to
	// stage through public APIs; instead verify the accounting invariant on
	// a busy hinted workload: overflowed frames were still executed (the
	// run completes), and attempts = successes + failures where failures
	// are bounded by threshold+1 per overflow plus the per-success misses.
	cfg := testConfig(32, NUMAWS)
	cfg.PushThreshold = 1
	r := &treeRunner{fanout: 4, depth: 6, leafCost: 2000, innerCost: 10,
		placeOf: func(i int) int { return i % 4 }}
	st := runTree(t, cfg, r)
	if st.PushAttempts < st.Pushes {
		t.Errorf("attempts %d < successes %d", st.PushAttempts, st.Pushes)
	}
	maxFailures := (int64(cfg.PushThreshold) + 1) * (st.PushOverflows + st.Pushes)
	if st.PushAttempts-st.Pushes > maxFailures {
		t.Errorf("failed attempts %d exceed threshold bound %d",
			st.PushAttempts-st.Pushes, maxFailures)
	}
}

func TestDisableCoinFlipStillCorrect(t *testing.T) {
	cfg := testConfig(32, NUMAWS)
	cfg.DisableCoinFlip = true
	r := &treeRunner{fanout: 4, depth: 6, leafCost: 1000, innerCost: 10,
		placeOf: func(i int) int { return i % 4 }}
	st := runTree(t, cfg, r)
	if st.Makespan <= 0 {
		t.Fatal("run did not complete")
	}
	// Everything still executed exactly once: total work conserved.
	ref := runTree(t, testConfig(1, NUMAWS), &treeRunner{fanout: 4, depth: 6, leafCost: 1000, innerCost: 10,
		placeOf: func(i int) int { return i % 4 }})
	if st.WorkTotal() != ref.WorkTotal() {
		t.Errorf("work differs with coin flip disabled: %d vs %d", st.WorkTotal(), ref.WorkTotal())
	}
}

func TestSchedulingTimeOnlyOnStealPath(t *testing.T) {
	// At P=1 nothing is ever stolen, so scheduling time must be exactly 0
	// under both policies — the work-first principle's accounting footprint.
	for _, pol := range []Policy{Cilk, NUMAWS} {
		r := &treeRunner{fanout: 3, depth: 6, leafCost: 500, innerCost: 5,
			placeOf: func(i int) int { return i % 4 }}
		st := runTree(t, testConfig(1, pol), r)
		if st.SchedTotal() != 0 {
			t.Errorf("%v P=1: scheduling time %d, want 0", pol, st.SchedTotal())
		}
	}
}

func TestMailboxFramesAreFullFrames(t *testing.T) {
	// Every frame that transits a mailbox must be a full frame (the paper's
	// invariant: "each worker can have only one single outstanding ready
	// full frame"). Indirect check: promotions+suspensions account for all
	// full frames, and runs with heavy pushing complete with drained
	// mailboxes (the engine would deadlock otherwise).
	cfg := testConfig(32, NUMAWS)
	r := &treeRunner{fanout: 4, depth: 7, leafCost: 800, innerCost: 10,
		placeOf: func(i int) int { return i % 4 }}
	st := runTree(t, cfg, r)
	if st.Pushes == 0 {
		t.Skip("schedule produced no pushes at this seed")
	}
	if st.MailboxSelf+st.MailboxSteals == 0 {
		t.Error("pushed frames were never consumed from mailboxes")
	}
}
