package sched

import (
	"repro/internal/deque"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Arena owns the allocation-heavy engine state that survives from one run
// to the next: the worker set (each worker carries a deque), the
// per-thief victim pickers, the per-socket push-candidate lists, the event
// queue's backing array, and a Frame free list. harness.Measure* repeats
// thousands of (spec, policy, P, seed) runs on identical machine shapes;
// building each engine inside a reused Arena makes every run after the
// first allocate almost nothing on the steal path.
//
// An Arena is not safe for concurrent use: it may back at most one live
// Engine at a time. The harness keeps one Arena per host worker goroutine.
// Reuse never changes results — a reused engine starts from exactly the
// state a fresh one would (the paper-4x8 pinned outputs and the
// arena-vs-fresh engine tests hold this).
type Arena struct {
	q sim.Queue

	// Cached worker set, valid for the shape in key. Each worker carries
	// its per-thief biased picker (nil when the shape never draws biased
	// victims).
	workers  []*worker
	onSocket [][]int // per-socket worker ids (push candidates)
	key      arenaKey
	// pickersDirty marks the cached pickers as diverged from the default
	// weight table: an Adaptive policy rebuilt them mid-run. The next
	// reuse reconstructs them from the default weights so a following run
	// starts exactly where a fresh engine would.
	pickersDirty bool
	// pickScratch is the per-victim weight scratch every picker build
	// reuses.
	pickScratch []float64

	// deques holds every deque this arena has built, indexed by worker id.
	// A shape change reuses them, so a P sweep that shrinks and regrows the
	// worker set builds each deque once.
	deques []*deque.Deque[*Frame]

	// bulkBuf is the StealHalf transfer buffer shared by every bulk steal
	// of every run in this arena (the engine is single-threaded and drains
	// it before returning). Lazily sized to bulkStealMax.
	bulkBuf []*Frame

	// Frame free list. Frames are recycled when they return, so at the end
	// of a completed run every pooled frame is back on the list.
	free   []*Frame
	blocks [][]Frame
}

// arenaKey captures every input of worker/picker/candidate construction.
// Workers are packed and the bias weights derive from the distance matrix,
// so both are functions of the topology and the worker count. The topology
// is identified by its Key, the machine identity every run key uses, so
// two parses of one machine (each service request parses its own) share
// the cached set.
type arenaKey struct {
	top      string
	workers  int
	needBias bool
	mailbox  int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// workersFor returns the worker set for the defaulted config c, reusing the
// cached set when the shape matches and rebuilding it otherwise. A run that
// panicked or was cancelled leaves frames in its deques; reuse discards
// such a deque, as build does, so the next run starts empty.
func (a *Arena) workersFor(c *Config, needBias bool) []*worker {
	if a.key == (arenaKey{c.Topology.Key(), c.Workers, needBias, c.MailboxCapacity}) {
		for i, w := range a.workers {
			if !w.deque.Empty() {
				a.deques[i] = deque.New[*Frame](0)
				w.deque = a.deques[i]
			}
			w.reset()
		}
		if a.pickersDirty {
			if needBias {
				a.buildPickers(c.Topology, DefaultBiasWeights(c.Topology))
			}
			a.pickersDirty = false
		}
		return a.workers
	}
	a.build(c, needBias)
	return a.workers
}

// build constructs workers, pickers and push-candidate lists for shape c
// and records the shape key. Workers take their deques from the arena's
// pool, which grows only when c has more workers than any earlier shape.
func (a *Arena) build(c *Config, needBias bool) {
	old := a.workers
	a.workers = make([]*worker, c.Workers)
	for i := range a.workers {
		w := &worker{id: i, socket: c.Topology.SocketOf(i)}
		if i == len(a.deques) {
			a.deques = append(a.deques, deque.New[*Frame](0))
		} else if !a.deques[i].Empty() {
			a.deques[i] = deque.New[*Frame](0)
		}
		w.deque = a.deques[i]
		if i < len(old) && cap(old[i].mailbox) >= c.MailboxCapacity {
			w.mailbox = old[i].mailbox[:0:c.MailboxCapacity]
		} else {
			w.mailbox = make([]*Frame, 0, c.MailboxCapacity)
		}
		a.workers[i] = w
	}
	if needBias && c.Workers > 1 {
		a.buildPickers(c.Topology, DefaultBiasWeights(c.Topology))
	}
	a.pickersDirty = false
	a.onSocket = make([][]int, c.Topology.Sockets())
	for _, w := range a.workers {
		a.onSocket[w.socket] = append(a.onSocket[w.socket], w.id)
	}
	a.key = arenaKey{c.Topology.Key(), c.Workers, needBias, c.MailboxCapacity}
}

// buildPickers constructs the per-thief biased pickers from a per-hop-class
// weight table: thief t steals victim v with weight weights[hop(t,v)] and
// weight 0 for itself. The hop-class table is the only weight storage;
// each picker folds it into prefix sums once. The uniform distribution
// needs no table at all (sim.PickUniformExcept), and a single worker has
// no victims.
func (a *Arena) buildPickers(top *topology.Topology, weights []float64) {
	if cap(a.pickScratch) < len(a.workers) {
		a.pickScratch = make([]float64, len(a.workers))
	}
	scratch := a.pickScratch[:len(a.workers)]
	for _, w := range a.workers {
		for v, victim := range a.workers {
			if v == w.id {
				scratch[v] = 0 // a worker never steals from itself
			} else {
				scratch[v] = weights[top.Distance(w.socket, victim.socket)]
			}
		}
		w.picker = sim.NewPicker(scratch)
	}
}

// newFrame hands out a pooled frame, growing the arena by a block when the
// free list is empty.
func (a *Arena) newFrame() *Frame {
	if len(a.free) == 0 {
		block := make([]Frame, 256)
		a.blocks = append(a.blocks, block)
		for i := range block {
			block[i].pooled = true
			a.free = append(a.free, &block[i])
		}
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return f
}

// release returns a pooled frame to the free list. Only the engine calls
// this, and only when the frame has returned (nothing references it).
func (a *Arena) release(f *Frame) {
	*f = Frame{pooled: true}
	a.free = append(a.free, f)
}
