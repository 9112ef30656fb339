// Command numaws regenerates the paper's figures and tables on the
// simulated NUMA platform. It is a thin shell over the public simulator
// library (repro/pkg/numaws) — everything it can do, an embedding program
// can do too.
//
// Usage:
//
//	numaws [flags] <subcommand>
//
// Subcommands:
//
//	fig1    print the evaluation machine's topology (Fig. 1)
//	fig3    normalized processing times on Cilk Plus (Fig. 3)
//	fig6    Z-Morton and blocked Z-Morton index grids (Fig. 6)
//	table7  TS / T1 / TP execution times on both platforms (Fig. 7)
//	table8  work / scheduling / idle breakdown and inflation (Fig. 8)
//	fig9    scalability curves (Fig. 9)
//	dag     measured work, span and parallelism per benchmark (Section IV)
//	timeline <bench>  per-worker execution timeline under both schedulers
//	sweep [-bench LIST] [-topologies LIST] [-points LIST]
//	        speedup curves across a grid of machine topologies
//	tournament [-bench LIST] [-topologies LIST]
//	        run every registered scheduling policy over a benchmark x
//	        topology grid (each cell at its machine's full core count,
//	        averaged over -seeds) and rank them by the geometric mean of
//	        per-cell completion time normalized to the cell's best
//	serve [-addr HOST:PORT] -store FILE [-jobs N]
//	        run the deduplicating sweep service: an HTTP/JSON API that
//	        expands grid requests, serves previously completed runs from a
//	        persistent content-addressed result store, coalesces identical
//	        in-flight runs, and streams rows as NDJSON as they finish
//	query [-server URL] [-bench LIST] [-topologies LIST] [-policies LIST]
//	      [-p LIST] [-seeds LIST] [-scale small|full] [-serial]
//	        stream one grid from a running sweep service: rows to stdout
//	        as NDJSON, the cached/simulated/failed summary to stderr
//	all     everything above except sweep, tournament, serve and query
//
// Flags:
//
//	-scale   small|full (default full)
//	-topology  machine the experiments simulate: a preset name
//	         (paper-4x8, 2x16, 8x4, snc-2x2x8, uniform) or a generic
//	         SOCKETSxCORES ring shape; unknown names are a usage error
//	-policy  scheduling policy of the NUMA-aware platform and the sweeps:
//	         a registered policy name (default numaws); unknown names are
//	         a usage error listing the registered policies
//	-bench   comma-separated benchmark names restricting the run to a
//	         subset of the registered suite, in the given order (default:
//	         every registered benchmark — the paper's nine plus the
//	         Cilk-suite additions fib, nqueens, fft, lu, rectmul);
//	         unknown names are a usage error listing the registered
//	         benchmarks
//	-p       parallel worker count for the tables (default: the whole
//	         machine — every core of the selected topology)
//	-seed    scheduler seed (default 1)
//	-seeds   seeds to average each parallel measurement over (default 1;
//	         values below 1 are a usage error)
//	-verify  verify every run's computed result (default true)
//	-jobs    how many simulations to run concurrently on the host
//	         (default: the number of CPUs). Output is identical for every
//	         value; -jobs only changes wall-clock time.
//	-json    write the measured rows/series as a JSON document to this
//	         file ("-" for stdout) in addition to the printed tables
//	-csv     write the measured rows/series as CSV to this file
//	         ("-" for stdout) in addition to the printed tables; when a
//	         subcommand measures both rows and series, the series table
//	         goes to a sibling *.series.csv file
//	-cpuprofile  write a pprof CPU profile of the measurement runs to
//	         this file (the sweep subcommand also accepts it after its
//	         name), so perf investigation of the simulator is self-serve
//	-memprofile  write a pprof heap profile taken after the measurement
//	         runs to this file
//	-timeout  per-run deadline: a simulation exceeding it is interrupted
//	         and reported as its benchmark's error row (default 0: no
//	         deadline, the fully deterministic configuration)
//	-retries re-run a timed-out simulation up to this many extra attempts;
//	         panics and verification failures are deterministic and never
//	         retried (default 0)
//	-journal append every completed run to this crash-safe JSONL file as
//	         it finishes, so a killed grid can be resumed; the file is a
//	         result store (the serve -store format), one line per run key
//	-resume  replay completed runs from the -journal file instead of
//	         re-simulating them; only the missing runs simulate, and the
//	         rows are identical to an uninterrupted grid's. A torn or
//	         corrupt tail is dropped from the file before anything is
//	         appended and reported as skipped lines (requires -journal)
//
// Interrupting a run (Ctrl-C) cancels the measurement context: simulations
// not yet started are skipped, in-flight ones finish, and the command
// exits with an error instead of leaving hours of sweep unaccounted for.
// A single benchmark's failure (panic, deadline, verification mismatch)
// does not abort the grid: its row becomes an error row — printed in the
// tables, carried by the exports — and the command exits 1 after
// completing and exporting everything else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/pkg/numaws"
)

func main() {
	// SIGTERM is what process managers send a long-running `numaws serve`;
	// it triggers the same graceful drain as Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment injected, so the golden tests can
// run full command lines in-process and capture the output.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		// Library errors already carry the "numaws:" namespace; don't
		// stutter it.
		fmt.Fprintln(stderr, "numaws:", strings.TrimPrefix(err.Error(), "numaws: "))
		return 1
	}
	fs := flag.NewFlagSet("numaws", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { printUsage(fs, stderr) }
	scale := fs.String("scale", "full", "input scale: small or full")
	topoSpec := fs.String("topology", "paper-4x8", "machine topology: a preset name or SOCKETSxCORES")
	policy := fs.String("policy", "numaws", "scheduling policy of the NUMA-aware platform and the sweeps")
	bench := fs.String("bench", "", "comma-separated benchmark names (default: the whole registered suite)")
	p := fs.Int("p", 0, "parallel worker count for tables (0: whole machine)")
	seed := fs.Int64("seed", 1, "scheduler seed")
	seeds := fs.Int("seeds", 1, "seeds to average each parallel measurement over")
	verify := fs.Bool("verify", true, "verify every run's result")
	jobs := fs.Int("jobs", runtime.NumCPU(), "concurrent simulations on the host (wall-clock only; results are identical)")
	jsonPath := fs.String("json", "", "write measured rows/series as JSON to this file (\"-\" for stdout)")
	csvPath := fs.String("csv", "", "write measured rows/series as CSV to this file (\"-\" for stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the runs to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile after the runs to this file")
	timeout := fs.Duration("timeout", 0, "per-run deadline; exceeding runs become error rows (0: none)")
	retries := fs.Int("retries", 0, "extra attempts for timed-out runs (deterministic failures are never retried)")
	journalPath := fs.String("journal", "", "append every completed run to this crash-safe JSONL file")
	resume := fs.Bool("resume", false, "replay completed runs from the -journal file instead of re-simulating")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help: usage printed, healthy exit
		}
		return 1
	}

	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	if cmd == "serve" || cmd == "query" {
		// serve and query talk to the sweep service instead of building a
		// local measurement Session, so the global flags do not apply to
		// them; an explicitly set one would be silently ignored — reject
		// it loudly instead.
		var set []string
		fs.Visit(func(f *flag.Flag) { set = append(set, "-"+f.Name) })
		if len(set) > 0 {
			return fail(fmt.Errorf("%s does not take the global flags (%s); pass flags after the subcommand: numaws %s -flag ...",
				cmd, strings.Join(set, ", "), cmd))
		}
		rest := fs.Args()[1:]
		if cmd == "serve" {
			return runServe(ctx, rest, stderr)
		}
		return runQuery(ctx, rest, stdout, stderr)
	}
	var sc numaws.Scale
	switch *scale {
	case "small":
		sc = numaws.ScaleSmall
	case "full":
		sc = numaws.ScaleFull
	default:
		// Anything else would otherwise run the hours-long full scale.
		return fail(fmt.Errorf("-scale %q: want small|full", *scale))
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "numaws: -jobs %d clamped to 1 (need at least one host worker)\n", *jobs)
		*jobs = 1
	}
	if *p < 0 {
		return fail(fmt.Errorf("-p %d must be positive (or 0 for the whole machine)", *p))
	}
	if *seeds < 1 {
		// Unlike -jobs (a host-side knob that cannot change results, so a
		// clamp-with-warning suffices), -seeds changes what is measured:
		// the harness would silently treat 0 as 1, and the printed tables
		// would not be the averaging the caller asked for.
		return fail(fmt.Errorf("-seeds %d must be at least 1", *seeds))
	}
	if *resume && *journalPath == "" {
		return fail(fmt.Errorf("-resume requires -journal (the file to replay from)"))
	}
	// Session construction is the validation point: unknown -topology,
	// -policy and -bench names and out-of-range -p are usage errors here,
	// never a silent default — a sweep on the wrong machine, scheduler or
	// benchmark set looks plausible and wastes hours.
	opts := []numaws.Option{
		numaws.WithTopology(*topoSpec),
		numaws.WithPolicy(*policy),
		numaws.WithScale(sc),
		numaws.WithWorkers(*p),
		numaws.WithSeed(*seed),
		numaws.WithSeeds(*seeds),
		numaws.WithVerify(*verify),
		numaws.WithJobs(*jobs),
	}
	if *bench != "" {
		opts = append(opts, numaws.WithBenchmarks(splitList(*bench)...))
	}
	if *timeout != 0 {
		opts = append(opts, numaws.WithRunTimeout(*timeout))
	}
	if *retries != 0 {
		opts = append(opts, numaws.WithRetry(*retries))
	}
	if *journalPath != "" {
		opts = append(opts, numaws.WithJournal(*journalPath))
	}
	if *resume {
		opts = append(opts, numaws.WithResume())
	}
	session, err := numaws.New(opts...)
	if err != nil {
		return fail(err)
	}
	defer func() {
		// The journal is fsync'd per record, so a close failure loses no
		// data; report it without disturbing the exit code already chosen.
		if cerr := session.Close(); cerr != nil {
			fmt.Fprintln(stderr, "numaws:", strings.TrimPrefix(cerr.Error(), "numaws: "))
		}
	}()
	if *resume {
		// Replay silently stops at the first torn or corrupt record;
		// surface what that cost, so a resume that lost most of its
		// journal doesn't masquerade as a warm one.
		replayed, skipped := session.ReplayStats()
		fmt.Fprintf(stderr, "numaws: resume: replayed %d completed run(s), skipped %d torn/corrupt journal line(s)\n",
			replayed, skipped)
	}
	if *policy != "numaws" {
		// The tables' column headers and export field names say NWS/numaws
		// regardless of -policy (schema stability); flag the substitution
		// where results would otherwise be misread as the paper's scheduler.
		fmt.Fprintf(stderr, "numaws: note: the NWS/numaws columns carry policy %q for this run\n", *policy)
	}

	kind, known := lookupSubcommand(cmd)
	if !known {
		return fail(unknownSubcommand(cmd))
	}
	// Go's flag package stops at the first positional argument, so a flag
	// placed after the subcommand would be silently ignored — reject it
	// loudly instead of running a sweep with the wrong configuration. The
	// sweep subcommand is the exception: it owns the arguments after its
	// name (a dedicated FlagSet, like `go test -run`).
	rest := fs.Args()
	if len(rest) > 0 { // empty when cmd defaulted to "all"
		rest = rest[1:]
	}
	var tn *tournamentArgs
	if cmd == "tournament" {
		// Like sweep, tournament owns the arguments after its name.
		tn, err = parseTournamentArgs(rest, *jsonPath, *csvPath)
		if err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return fail(err)
		}
		*jsonPath, *csvPath = tn.json, tn.csv
		rest = nil
	}
	var sw *sweepArgs
	if cmd == "sweep" {
		// An explicitly passed global -topology becomes the sweep's machine
		// list; combining it with -topologies would leave one of them
		// silently ignored, so that mix is rejected.
		topoExplicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "topology" {
				topoExplicit = true
			}
		})
		globalTopo := ""
		if topoExplicit {
			globalTopo = *topoSpec
		}
		sw, err = parseSweepArgs(rest, *jsonPath, *csvPath, *cpuProfile, *memProfile, globalTopo, session)
		if err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return fail(err)
		}
		*jsonPath, *csvPath = sw.json, sw.csv
		*cpuProfile, *memProfile = sw.cpu, sw.mem
		rest = nil
	}
	if cmd == "timeline" && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		rest = rest[1:] // the benchmark name operand
	}
	if len(rest) > 0 {
		if strings.HasPrefix(rest[0], "-") {
			fmt.Fprintf(stderr, "numaws: flag %s must precede the subcommand: numaws [flags] %s\n", rest[0], cmd)
		} else {
			fmt.Fprintf(stderr, "numaws: unexpected argument %q after %q\n", rest[0], cmd)
		}
		return 1
	}
	if (*jsonPath != "" || *csvPath != "") && !kind.rows && !kind.series && !kind.sweeps && !kind.tour {
		return fail(fmt.Errorf("-json/-csv: subcommand %q produces no rows or series to export", cmd))
	}
	// Open the export files before the sweep: an unwritable path should
	// fail here, not after hours of simulation.
	out, err := openSinks(*jsonPath, *csvPath, kind, stdout)
	if err != nil {
		out.discard() // drop any sink opened before the failing one
		return fail(err)
	}
	// Profiling brackets the measurement runs only, so the profile is the
	// simulator, not flag parsing or export encoding.
	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		out.discard()
		return fail(err)
	}
	app := &app{session: session, w: stdout, args: fs.Args(), tn: tn}
	if err := app.run(ctx, cmd, sw); err != nil {
		stopProf()
		out.discard()
		return fail(err)
	}
	// The profiles are a side channel: a failure writing them must not
	// discard the completed measurements, so export first and only then
	// report the profile error (loudly, with the exports safely on disk).
	profErr := stopProf()
	if err := app.ex.write(out, stderr); err != nil {
		out.discard() // sinks not yet written keep their temp files
		return fail(err)
	}
	if profErr != nil {
		fmt.Fprintln(stderr, "numaws: profile (measurements and exports are intact):", profErr)
		return 1
	}
	// Contained benchmark failures surfaced as error rows: the tables and
	// exports above carry them, but the exit code must still say the run
	// was not fully healthy.
	failed := 0
	for _, r := range app.ex.rows {
		if r.Err != nil {
			failed++
			fmt.Fprintln(stderr, "numaws: failed:", r.Err.Error())
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "numaws: %d of %d benchmark rows failed (tables and exports carry the error rows)\n", failed, len(app.ex.rows))
		return 1
	}
	return 0
}

// startProfiles starts a CPU profile and arranges a heap profile, either
// optional ("" disables it). The returned stop function is idempotent; it
// ends the CPU profile and snapshots the heap after a final GC, so the
// profile reflects live simulator state rather than collectable garbage.
func startProfiles(cpu, mem string) (func() error, error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var err error
		if cpuF != nil {
			pprof.StopCPUProfile()
			err = cpuF.Close()
		}
		if mem != "" {
			f, ferr := os.Create(mem)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return err
			}
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = werr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}, nil
}

// measures says which result kinds a subcommand produces.
type measures struct{ rows, series, sweeps, tour bool }

// subcommands is the authoritative registry: every subcommand run()
// handles, in presentation order, with its one-line usage description and
// what it measures. The usage message, validity checks, the
// unknown-subcommand listing and the export sinks derive from it;
// -json/-csv problems (non-measuring subcommand, unwritable path) are
// rejected up front, before hours of simulation. serve and query are
// dispatched before the Session is built (they talk to the sweep service,
// exporting nothing locally); they are registered here so the usage text
// and unknown-subcommand listing stay complete.
var subcommands = []struct {
	name, desc string
	kind       measures
}{
	{"fig1", "print the evaluation machine's topology (Fig. 1)", measures{}},
	{"fig3", "normalized processing times on Cilk Plus (Fig. 3)", measures{rows: true}},
	{"fig6", "Z-Morton and blocked Z-Morton index grids (Fig. 6)", measures{}},
	{"table7", "TS / T1 / TP execution times on both platforms (Fig. 7)", measures{rows: true}},
	{"table8", "work / scheduling / idle breakdown and inflation (Fig. 8)", measures{rows: true}},
	{"tables", "table7 and table8 from one measured grid", measures{rows: true}},
	{"fig9", "scalability curves (Fig. 9)", measures{series: true}},
	{"dag", "measured work, span and parallelism per benchmark (Section IV)", measures{}},
	{"timeline", "per-worker execution timeline under both schedulers", measures{}},
	{"sweep", "speedup curves across a grid of machine topologies", measures{sweeps: true}},
	{"tournament", "rank every registered scheduling policy over a benchmark x topology grid", measures{tour: true}},
	{"serve", "run the deduplicating sweep service (HTTP/JSON, NDJSON streams)", measures{}},
	{"query", "stream a grid from a running sweep service", measures{}},
	{"all", "everything above except sweep, tournament, serve and query", measures{rows: true, series: true}},
}

// lookupSubcommand reports what cmd measures and whether it is registered.
func lookupSubcommand(cmd string) (measures, bool) {
	for _, sc := range subcommands {
		if sc.name == cmd {
			return sc.kind, true
		}
	}
	return measures{}, false
}

// sweepArgs carries the sweep subcommand's parsed flags.
type sweepArgs struct {
	benches   []string
	topos     []string
	points    []int
	json, csv string
	cpu, mem  string
}

// parseSweepArgs parses the arguments after "sweep" with a dedicated
// FlagSet. -json/-csv may be given either before the subcommand (the global
// flags, passed in as defaults) or after it. globalTopo is the global
// -topology value when the user passed that flag explicitly ("" otherwise);
// it narrows the sweep to that one machine, and clashes with -topologies.
func parseSweepArgs(args []string, jsonDefault, csvDefault, cpuDefault, memDefault, globalTopo string, session *numaws.Session) (*sweepArgs, error) {
	toposDefault := strings.Join(numaws.Topologies(), ",")
	if globalTopo != "" {
		toposDefault = globalTopo
	}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	bench := fs.String("bench", "", "comma-separated benchmark names (default: the Fig. 9 curve set)")
	topos := fs.String("topologies", toposDefault,
		"comma-separated topology presets or SOCKETSxCORES shapes")
	points := fs.String("points", "", "comma-separated worker counts, clipped to each machine's core count (default: each machine's quarter points)")
	jsonPath := fs.String("json", jsonDefault, "write the sweep as JSON to this file (\"-\" for stdout)")
	csvPath := fs.String("csv", csvDefault, "write the sweep as CSV to this file (\"-\" for stdout)")
	cpuProfile := fs.String("cpuprofile", cpuDefault, "write a pprof CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", memDefault, "write a pprof heap profile after the sweep to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("sweep: unexpected argument %q", fs.Arg(0))
	}
	if globalTopo != "" && *topos != toposDefault {
		return nil, fmt.Errorf("sweep: -topology %s conflicts with sweep -topologies %s; pass only one", globalTopo, *topos)
	}
	sw := &sweepArgs{json: *jsonPath, csv: *csvPath, cpu: *cpuProfile, mem: *memProfile, topos: splitList(*topos)}
	if *points != "" {
		for _, s := range splitList(*points) {
			p, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("sweep: bad -points entry %q", s)
			}
			sw.points = append(sw.points, p)
		}
	}
	if *bench == "" {
		// Default to the Fig. 9 curve set: the benchmarks the paper plots
		// as scalability curves.
		for _, b := range session.Benchmarks() {
			if b.Curve != "" {
				sw.benches = append(sw.benches, b.Name)
			}
		}
		return sw, nil
	}
	// Name validation belongs to the library: Session.Sweep rejects
	// unknown and duplicate names before any simulation runs.
	sw.benches = splitList(*bench)
	return sw, nil
}

// tournamentArgs carries the tournament subcommand's parsed flags.
type tournamentArgs struct {
	benches   []string
	topos     []string
	json, csv string
}

// parseTournamentArgs parses the arguments after "tournament" with a
// dedicated FlagSet. -json/-csv may be given either before the subcommand
// (the global flags, passed in as defaults) or after it. The machine list
// defaults to the session's own topology (Session.Tournament's nil case),
// so the global -topology flag steers a single-machine tournament without
// repetition.
func parseTournamentArgs(args []string, jsonDefault, csvDefault string) (*tournamentArgs, error) {
	fs := flag.NewFlagSet("tournament", flag.ContinueOnError)
	bench := fs.String("bench", "", "comma-separated benchmark names (default: the session's whole suite)")
	topos := fs.String("topologies", "", "comma-separated topology presets or SOCKETSxCORES shapes (default: the -topology machine)")
	jsonPath := fs.String("json", jsonDefault, "write the tournament as JSON to this file (\"-\" for stdout)")
	csvPath := fs.String("csv", csvDefault, "write the tournament as CSV to this file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("tournament: unexpected argument %q", fs.Arg(0))
	}
	return &tournamentArgs{
		benches: splitList(*bench), topos: splitList(*topos),
		json: *jsonPath, csv: *csvPath,
	}, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// seriesCSVPath derives the sibling file the series table lands in when
// one -csv path must carry both kinds: out.csv -> out.series.csv.
func seriesCSVPath(path string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + ".series" + ext
}

func unknownSubcommand(cmd string) error {
	names := make([]string, 0, len(subcommands))
	for _, sc := range subcommands {
		names = append(names, sc.name)
	}
	sort.Strings(names)
	return fmt.Errorf("unknown subcommand %q (want %s)", cmd, strings.Join(names, ", "))
}

// export accumulates the measurements the executed subcommands produced,
// for the optional machine-readable outputs. Each kind keeps the last
// measurement set produced ("all" measures the full table rows after
// fig3's subset, so the export carries the full set).
type export struct {
	rows   []numaws.Row
	series []numaws.Series
	sweeps []numaws.SweepCurve
	tour   *numaws.Tournament
}

// sink is one pre-opened export destination. File sinks write to a
// temporary file in the destination directory and rename into place on
// success, so a failed sweep neither truncates a previous export nor
// leaves a partial one.
type sink struct {
	w    io.Writer
	f    *os.File // the temporary file; nil for stdout
	path string   // final destination
}

func openSink(path string, stdout io.Writer) (*sink, error) {
	if path == "" {
		return nil, nil
	}
	if path == "-" {
		return &sink{w: stdout, path: path}, nil
	}
	// The temp file only proves the parent directory is writable; also
	// make sure the destination itself can be renamed into, so a bad
	// path fails now rather than after the sweep.
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return nil, fmt.Errorf("%s is a directory", path)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &sink{w: f, f: f, path: path}, nil
}

func (s *sink) put(fn func(io.Writer) error) error {
	if s == nil {
		return nil
	}
	if s.f == nil {
		return fn(s.w)
	}
	err := fn(s.f)
	if err == nil {
		err = s.f.Chmod(0o644)
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(s.f.Name())
		return err
	}
	if err := os.Rename(s.f.Name(), s.path); err != nil {
		os.Remove(s.f.Name())
		return err
	}
	return nil
}

// discard removes a file sink's temporary file without touching the
// destination; used when the sweep fails before anything is exported.
func (s *sink) discard() {
	if s == nil || s.f == nil {
		return
	}
	s.f.Close()
	os.Remove(s.f.Name())
}

// sinks holds every export destination, opened before the sweep runs.
type sinks struct {
	json      *sink
	csv       *sink
	csvSeries *sink // non-nil when rows and series need separate CSV files
}

func (s sinks) discard() {
	s.json.discard()
	s.csv.discard()
	s.csvSeries.discard()
}

// openSinks creates the export files a subcommand will need. Rows and
// series have different column sets, so a file -csv carrying both kinds
// splits the series table into a sibling *.series.csv; stdout keeps the
// blank-line-separated two-table stream for eyeballing.
func openSinks(jsonPath, csvPath string, kind measures, stdout io.Writer) (sinks, error) {
	var s sinks
	var err error
	if s.json, err = openSink(jsonPath, stdout); err != nil {
		return s, err
	}
	if s.csv, err = openSink(csvPath, stdout); err != nil {
		return s, err
	}
	if csvPath != "" && csvPath != "-" && kind.rows && kind.series {
		if s.csvSeries, err = openSink(seriesCSVPath(csvPath), stdout); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (e *export) write(s sinks, stderr io.Writer) error {
	if err := s.json.put(func(w io.Writer) error {
		return numaws.WriteExport(w, numaws.Export{Rows: e.rows, Series: e.series, Sweeps: e.sweeps, Tournament: e.tour})
	}); err != nil {
		return err
	}
	if e.tour != nil {
		// The tournament subcommand is the only producer of rankings and
		// measures nothing else, so its CSV carries exactly one table.
		return s.csv.put(func(w io.Writer) error {
			return numaws.WriteTournamentCSV(w, *e.tour)
		})
	}
	if len(e.sweeps) > 0 {
		// The sweep subcommand is the only producer of sweeps and measures
		// nothing else, so its CSV carries exactly one table.
		return s.csv.put(func(w io.Writer) error {
			return numaws.WriteSweepsCSV(w, e.sweeps)
		})
	}
	if s.csvSeries != nil {
		if err := s.csv.put(func(w io.Writer) error {
			return numaws.WriteRowsCSV(w, e.rows)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "numaws: rows CSV in %s, series CSV in %s\n", s.csv.path, s.csvSeries.path)
		return s.csvSeries.put(func(w io.Writer) error {
			return numaws.WriteSeriesCSV(w, e.series)
		})
	}
	return s.csv.put(func(w io.Writer) error {
		return numaws.WriteCSV(w, e.rows, e.series)
	})
}

// app executes subcommands against the session, printing to w and
// accumulating exports.
type app struct {
	session *numaws.Session
	w       io.Writer
	args    []string // positional args after flag parsing (cmd, operands)
	tn      *tournamentArgs
	ex      export
}

func (a *app) run(ctx context.Context, cmd string, sw *sweepArgs) error {
	s := a.session
	w := a.w
	switch cmd {
	case "fig1":
		fmt.Fprintln(w, "Fig. 1: the evaluation machine")
		fmt.Fprint(w, s.Machine().Description)
	case "fig6":
		fmt.Fprintln(w, "Fig. 6(a): Z-Morton layout (cell by cell)")
		fmt.Fprint(w, numaws.MortonGrid(8))
		fmt.Fprintln(w, "\nFig. 6(b): blocked Z-Morton layout (4x4 blocks, row-major inside)")
		fmt.Fprint(w, numaws.BlockedMortonGrid(8, 4))
	case "fig3":
		var fig3 []string
		for _, b := range s.Benchmarks() {
			if b.Fig3 {
				fig3 = append(fig3, b.Name)
			}
		}
		rows, err := s.MeasureAll(ctx, fig3...)
		if err != nil {
			return err
		}
		a.ex.rows = rows
		fmt.Fprint(w, numaws.Fig3(rows))
	case "table7", "table8", "tables":
		rows, err := s.MeasureAll(ctx)
		if err != nil {
			return err
		}
		a.ex.rows = rows
		if cmd != "table8" {
			fmt.Fprint(w, numaws.Table7(rows))
		}
		if cmd != "table7" {
			fmt.Fprintln(w)
			fmt.Fprint(w, numaws.Table8(rows))
		}
	case "fig9":
		series, err := s.Scalability(ctx, nil)
		if err != nil {
			return err
		}
		a.ex.series = series
		fmt.Fprint(w, numaws.Fig9(series))
	case "sweep":
		sweeps, err := s.Sweep(ctx, sw.topos, sw.points, sw.benches...)
		if err != nil {
			return err
		}
		a.ex.sweeps = sweeps
		fmt.Fprint(w, numaws.SweepTable(sweeps))
	case "tournament":
		tour, err := s.Tournament(ctx, a.tn.topos, a.tn.benches...)
		if err != nil {
			return err
		}
		a.ex.tour = &tour
		fmt.Fprint(w, tour.Table())
	case "dag":
		fmt.Fprintln(w, "Measured computation dags (strand cycles; parallelism = work/span)")
		fmt.Fprintf(w, "%-12s %14s %14s %14s\n", "benchmark", "work (T1)", "span (Tinf)", "parallelism")
		dags, err := s.DAGs(ctx)
		if err != nil {
			return err
		}
		for _, d := range dags {
			fmt.Fprintf(w, "%-12s %14d %14d %14.1f\n", d.Bench, d.Work, d.Span, d.Parallelism)
		}
	case "timeline":
		name := ""
		if len(a.args) > 1 {
			name = a.args[1]
		}
		if name == "" {
			name = "heat"
		}
		tls, err := s.Timeline(ctx, name, 100)
		if err != nil {
			return err
		}
		for _, tl := range tls {
			fmt.Fprintf(w, "%s on %s: T%d = %d cycles\n", name, tl.Policy, tl.P, tl.Time)
			fmt.Fprint(w, tl.Chart)
			fmt.Fprintln(w)
		}
	case "all":
		for _, sub := range []string{"fig1", "fig6", "fig3", "tables", "fig9", "dag"} {
			if err := a.run(ctx, sub, nil); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return unknownSubcommand(cmd)
	}
	return nil
}
