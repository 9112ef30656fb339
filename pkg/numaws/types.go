package numaws

// The facade's result types. The measurement schema — rows, curves,
// failures, tournaments, streamed runs and the export bundle — is declared
// once, in pkg/numaws/results, which the harness builds and the renderers
// read; the facade re-exports it under its public names as aliases. The
// types below Run describe single runs and are built here from engine
// reports: the public API must not name internal types in exported
// signatures (the layering contract in DESIGN.md, enforced by the
// facadepurity analyzer in numaws-vet and the CI facade job).

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/pkg/numaws/results"
)

// PlatformResult is one platform's measurements for one benchmark: T1,
// TP and the P-worker work/scheduling/idle breakdown (see
// results.PlatformResult).
type PlatformResult = results.PlatformResult

// RunFailure describes why a benchmark's measurement failed: the run that
// died and its failure kind (see results.RunFailure).
type RunFailure = results.RunFailure

// Row is one benchmark's full measurement: TS and both platforms' results
// (see results.Row).
type Row = results.Row

// Series is one benchmark's scalability curve, the paper's Fig. 9 (see
// results.Series).
type Series = results.Series

// SweepCurve is one (benchmark, machine) scalability curve of a topology
// sweep (see results.SweepCurve).
type SweepCurve = results.SweepCurve

// Export bundles every measurement kind for the machine-readable writers;
// any field may be empty.
type Export = results.Export

// Run identifies one completed simulation of a streaming measurement (see
// Session.Each and results.Run).
type Run = results.Run

// Accesses counts memory accesses by the point of the hierarchy that
// serviced them, from fastest to slowest.
type Accesses struct {
	PrivateHit  int64 // private L1/L2 hit
	LocalLLC    int64 // shared last-level cache on the home socket
	RemoteCache int64 // a cache on another socket
	LocalDRAM   int64 // DRAM attached to the accessing socket
	RemoteDRAM  int64 // DRAM on another socket
}

// Remote reports the accesses serviced off-socket — the traffic NUMA-aware
// scheduling exists to avoid.
func (a Accesses) Remote() int64 { return a.RemoteCache + a.RemoteDRAM }

// RunReport is the outcome of one simulation (Session.Run, RunSerial,
// RunTask): the completion time plus the scheduler and memory-system
// activity behind it. Scheduler fields are zero for serial runs, which
// have no scheduler.
type RunReport struct {
	Bench   string // "" for RunTask computations
	Policy  string // registry name; "serial" for serial elision runs
	Workers int
	Time    int64 // completion time in virtual cycles

	Work  int64 // summed useful-work time over workers
	Sched int64 // summed scheduling time (promotions, syncs, pushes)
	Idle  int64 // summed idle time (failed steal attempts)

	Steals        int64 // successful deque steals
	StealAttempts int64 // all steal attempts
	Pushes        int64 // successful mailbox deposits
	MailboxHits   int64 // frames obtained from a mailbox (own or stolen)

	Accesses Accesses
}

// DAGReport is a benchmark's measured computation dag: the quantities the
// paper's Section IV bounds are stated in, measured on the session's
// P-worker run and read from that run's cache record. Strand memory costs
// depend on where strands run, so Work includes that run's NUMA work
// inflation: it is the one-worker T1 only when the session's P is 1.
type DAGReport struct {
	Bench       string
	Work        int64 // total strand cycles of the session's P-worker run
	Span        int64 // critical-path cycles of the same run
	Parallelism float64
}

// Timeline is one policy's rendered per-worker execution timeline for a
// benchmark: each worker's time split into useful work, scheduler
// bookkeeping and idle probing.
type Timeline struct {
	Policy string
	P      int
	Time   int64  // completion time in virtual cycles
	Chart  string // fixed-width rendering, one row per worker
}

// reportFrom flattens a core run report into the facade's RunReport.
func reportFrom(bench, policy string, rep *core.Report) RunReport {
	out := RunReport{
		Bench:   bench,
		Policy:  policy,
		Workers: rep.Workers,
		Time:    rep.Time,
	}
	if st := rep.Sched; st != nil {
		out.Work = st.WorkTotal()
		out.Sched = st.SchedTotal()
		out.Idle = st.IdleTotal()
		out.Steals = st.Steals
		out.StealAttempts = st.StealAttempts
		out.Pushes = st.Pushes
		out.MailboxHits = st.MailboxSteals + st.MailboxSelf
	}
	out.Accesses = accessesFrom(rep)
	return out
}

func accessesFrom(rep *core.Report) Accesses {
	c := rep.Cache.Count
	return Accesses{
		PrivateHit:  c[cache.KindPrivateHit],
		LocalLLC:    c[cache.KindLocalLLC],
		RemoteCache: c[cache.KindRemoteCache],
		LocalDRAM:   c[cache.KindLocalDRAM],
		RemoteDRAM:  c[cache.KindRemoteDRAM],
	}
}
