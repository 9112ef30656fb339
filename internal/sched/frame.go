package sched

import "fmt"

// PlaceAny means a frame carries no locality constraint — the paper's @ANY
// annotation, which "indicates no place constraints and unsets the locality
// hint".
const PlaceAny = -1

// Frame is the scheduler's unit of work, mirroring Cilk Plus frames: "every
// Cilk function has an associated shadow frame that gets pushed onto the
// deque upon spawning. ... Whenever a frame is stolen successfully, the
// runtime promotes the stolen frame from a shadow frame into a full frame."
//
// A Frame starts as a shadow frame (cheap, work-path) and is promoted to a
// full frame on its first steal (steal-path bookkeeping), per the work-first
// principle.
type Frame struct {
	// Place is the frame's locality hint: the virtual place (socket) the
	// user earmarked it for, or PlaceAny. Children inherit the parent's
	// place by default.
	Place int
	// Root marks the first root full frame; its return ends the run.
	Root bool
	// Parent is the spawning frame (nil for the root).
	Parent *Frame
	// Data is an opaque slot for the Runner (the execution layer stores
	// its continuation state here). The scheduler never inspects it.
	Data any

	full      bool // promoted to a full frame by a successful steal
	stolen    bool // stolen and has not completed a cilk_sync since
	suspended bool // parked at a nontrivial sync awaiting children
	called    bool // invoked by a plain call, not a spawn
	pooled    bool // allocated from an engine arena; recycled on return
	children  int  // outstanding spawned children
	pushCount int  // PUSHBACK retries; compared against the pushing threshold
}

// NewFrame returns a frame spawned by parent with the given place hint.
func NewFrame(parent *Frame, place int) *Frame {
	return &Frame{Place: place, Parent: parent}
}

// NewCalledFrame returns a frame for a plain (non-spawn) function call. A
// called frame gives the callee its own sync scope — in Cilk, cilk_sync
// waits only for children spawned by the *current function instance* — but
// contributes no parallelism: the caller blocks until it returns, and the
// caller's continuation is not stealable meanwhile.
func NewCalledFrame(parent *Frame, place int) *Frame {
	return &Frame{Place: place, Parent: parent, called: true}
}

// Called reports whether this frame was entered by a plain call.
func (f *Frame) Called() bool { return f.called }

// NewRootFrame returns the root full frame of a computation. The paper pins
// the root at the first core of the first socket, so the root's implicit
// place is socket 0 unless the caller overrides it.
func NewRootFrame(place int) *Frame {
	return &Frame{Place: place, Root: true, full: true}
}

// Full reports whether the frame has been promoted to a full frame.
func (f *Frame) Full() bool { return f.full }

// Stolen reports whether the frame has been stolen since its last
// successful sync.
func (f *Frame) Stolen() bool { return f.stolen }

// Suspended reports whether the frame is parked at a nontrivial sync.
func (f *Frame) Suspended() bool { return f.suspended }

// Children reports the number of outstanding spawned children.
func (f *Frame) Children() int { return f.children }

// promote turns a shadow frame into a full frame at steal time and marks it
// stolen (so its next cilk_sync is nontrivial). In the real runtime this is
// where the expensive full-frame bookkeeping is created; here the engine
// models that cost via promoteCost.
func (f *Frame) promote() {
	f.full = true
	f.stolen = true
}

func (f *Frame) String() string {
	kind := "shadow"
	if f.full {
		kind = "full"
	}
	return fmt.Sprintf("frame{%s place=%d stolen=%v susp=%v children=%d}",
		kind, f.Place, f.stolen, f.suspended, f.children)
}

// YieldKind classifies the scheduling event at which a strand ended.
type YieldKind int

// The scheduling events user code can hit: cilk_spawn, cilk_sync, returning
// from a function, and a plain call of a Cilk function (which opens a fresh
// sync scope without creating stealable work).
const (
	YieldSpawn YieldKind = iota
	YieldSync
	YieldReturn
	YieldCall
)

// String names the yield kind.
func (k YieldKind) String() string {
	switch k {
	case YieldSpawn:
		return "spawn"
	case YieldSync:
		return "sync"
	case YieldReturn:
		return "return"
	case YieldCall:
		return "call"
	}
	return fmt.Sprintf("yield(%d)", int(k))
}

// Yield describes what a frame did when it was last resumed: the strand it
// executed (its cost in cycles) and the scheduling event that ended it.
type Yield struct {
	Kind  YieldKind
	Cost  int64  // cycles of the strand executed before this event
	Child *Frame // for YieldSpawn: the freshly spawned child frame
}

// Runner executes frames' strands on behalf of the engine. The engine calls
// Resume each time a worker lets frame f run; the Runner runs user code on
// worker w until the next spawn, sync, or return, and reports what happened.
//
// Contract: after a YieldSync, the engine will call Resume again on the same
// frame only when the sync is allowed to complete (trivially, or after all
// children returned); the Runner then continues past the sync point.
//
// A Runner may offer each yield to Engine.Continue from inside Resume. When
// Continue takes it, the worker has moved on to the frame Continue returns
// and the Runner keeps running that frame's next strand in the same Resume
// call; the yield Resume finally returns is then the one that ends the
// latest such strand, of the frame the worker is on by then, not
// necessarily f's.
type Runner interface {
	Resume(w int, f *Frame) Yield
}
