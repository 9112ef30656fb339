package main

// CLI-level tests. testdata/all-small.golden was captured from the
// pre-redesign binary (the closed-enum, pre-facade implementation) running
// `numaws -scale small -topology paper-4x8 all`; the golden test is the
// acceptance gate that the public facade, the pluggable policy registry,
// the context-aware harness and now the open workload registry reproduce
// the paper pipeline byte for byte under both registered policies (the
// tables carry the cilk baseline and the numaws columns of every
// benchmark). Since the suite opened up, the golden run selects the
// paper's nine with -bench; the default suite additionally carries the
// Cilk-suite benchmarks (fib, nqueens, fft, lu, rectmul), covered by
// their own tests below.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/numaws"
)

// paperNine is the original nine-benchmark suite the golden output pins.
const paperNine = "cg,cilksort,heat,hull1,hull2,matmul,matmul-z,strassen,strassen-z"

// runCLI executes a full command line in-process.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(t.Context(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestAllSmallMatchesPinnedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale pipeline skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/all-small.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scale", "small", "-topology", "paper-4x8", "-bench", paperNine, "all")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if out != string(want) {
		t.Errorf("`numaws -scale small -topology paper-4x8 -bench %s all` diverged from the pinned pre-redesign oracle.\nIf the change is intentional, regenerate testdata/all-small.golden.\n--- got\n%s\n--- want\n%s", paperNine, out, want)
	}
}

// cilkFive is the Cilk-suite addition pinned by testdata/cilk-small.golden.
const cilkFive = "fib,nqueens,fft,lu,rectmul"

// TestCilkSmallMatchesPinnedOracle is the all-small golden test for the
// five Cilk-suite benchmarks: the full paper pipeline over fib, nqueens,
// fft, lu and rectmul must reproduce testdata/cilk-small.golden byte for
// byte.
func TestCilkSmallMatchesPinnedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale pipeline skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/cilk-small.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scale", "small", "-topology", "paper-4x8", "-bench", cilkFive, "all")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if out != string(want) {
		t.Errorf("`numaws -scale small -topology paper-4x8 -bench %s all` diverged from the pinned oracle.\nIf the change is intentional, regenerate testdata/cilk-small.golden.\n--- got\n%s\n--- want\n%s", cilkFive, out, want)
	}
}

// TestTournamentSmallMatchesPinnedOracle pins the policy tournament: all
// five registered policies ranked over heat and cilksort on the paper
// machine must reproduce testdata/tournament-small.golden byte for byte —
// the ranking, the scores, and every cell's completion time.
func TestTournamentSmallMatchesPinnedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale tournament skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/tournament-small.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scale", "small", "-topology", "paper-4x8", "tournament", "-bench", "heat,cilksort")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if out != string(want) {
		t.Errorf("`numaws -scale small -topology paper-4x8 tournament -bench heat,cilksort` diverged from the pinned oracle.\nIf the change is intentional, regenerate testdata/tournament-small.golden.\n--- got\n%s\n--- want\n%s", out, want)
	}
}

// sweepTopologies are the machines testdata/sweep-small.golden pins
// beyond the paper's: partial sockets (2x4 at P=2 and P=6), the four-hop
// 8x4 ring, the sub-NUMA snc-2x2x8 and the one-socket uniform machine.
const sweepTopologies = "paper-4x8,2x4,8x4,snc-2x2x8,uniform"

// TestSweepSmallMatchesPinnedOracle pins the topology sweep: heat, fib and
// cilksort on five machines must reproduce testdata/sweep-small.golden
// byte for byte — the speedup tables and the CSV with raw TP cycles.
func TestSweepSmallMatchesPinnedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale topology sweep skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/sweep-small.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-scale", "small", "sweep", "-bench", "heat,fib,cilksort", "-topologies", sweepTopologies, "-csv", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if out != string(want) {
		t.Errorf("`numaws -scale small sweep -bench heat,fib,cilksort -topologies %s -csv -` diverged from the pinned oracle.\nIf the change is intentional, regenerate testdata/sweep-small.golden.\n--- got\n%s\n--- want\n%s", sweepTopologies, out, want)
	}
}

// TestTournamentFlags pins the subcommand's own flag surface: list flags
// after the name, rejection of positionals, and the export paths.
func TestTournamentFlags(t *testing.T) {
	code, _, errb := runCLI(t, "tournament", "extra")
	if code == 0 || !strings.Contains(errb, "unexpected argument") {
		t.Errorf("positional arg: exit %d, stderr %q", code, errb)
	}
	code, _, errb = runCLI(t, "-scale", "small", "tournament", "-bench", "bogus")
	if code == 0 || !strings.Contains(errb, "bogus") {
		t.Errorf("unknown bench: exit %d, stderr %q", code, errb)
	}
	code, _, _ = runCLI(t, "tournament", "-h")
	if code != 0 {
		t.Errorf("tournament -h exited %d, want 0", code)
	}
}

// TestDefaultSuiteCoversCilkAdditions pins the open suite: without -bench
// the session carries the registered fourteen, and the dag protocol (one
// verified parallel run per benchmark) covers the five additions.
func TestDefaultSuiteCoversCilkAdditions(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-suite run skipped in -short mode")
	}
	code, out, errb := runCLI(t, "-scale", "small", "dag")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	for _, name := range []string{"fib", "nqueens", "fft", "lu", "rectmul", "cilksort"} {
		if !strings.Contains(out, name) {
			t.Errorf("default dag output missing %q:\n%s", name, out)
		}
	}
}

func TestUnknownBenchIsUsageErrorListingNames(t *testing.T) {
	code, _, errb := runCLI(t, "-bench", "bogus", "fig1")
	if code == 0 {
		t.Fatal("unknown -bench exited 0")
	}
	for _, want := range []string{`"bogus"`, "cilksort", "fib", "rectmul"} {
		if !strings.Contains(errb, want) {
			t.Errorf("unknown -bench stderr missing %q:\n%s", want, errb)
		}
	}
}

func TestSeedsBelowOneIsUsageError(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		code, _, errb := runCLI(t, "-seeds", v, "fig1")
		if code == 0 {
			t.Fatalf("-seeds %s exited 0", v)
		}
		if !strings.Contains(errb, "at least 1") {
			t.Errorf("-seeds %s stderr unhelpful:\n%s", v, errb)
		}
	}
	// -seeds 1 (the default) stays accepted.
	if code, _, errb := runCLI(t, "-seeds", "1", "fig1"); code != 0 {
		t.Errorf("-seeds 1 rejected: %s", errb)
	}
}

func TestUnknownScaleIsUsageError(t *testing.T) {
	for _, v := range []string{"smal", "", "Small"} {
		code, _, errb := runCLI(t, "-scale", v, "fig1")
		if code == 0 {
			t.Fatalf("-scale %q exited 0", v)
		}
		if !strings.Contains(errb, "small|full") {
			t.Errorf("-scale %q stderr unhelpful:\n%s", v, errb)
		}
	}
	for _, v := range []string{"small", "full"} {
		if code, _, errb := runCLI(t, "-scale", v, "fig1"); code != 0 {
			t.Errorf("-scale %s rejected: %s", v, errb)
		}
	}
}

func TestUnknownPolicyIsUsageErrorListingNames(t *testing.T) {
	code, _, errb := runCLI(t, "-policy", "bogus", "fig1")
	if code == 0 {
		t.Fatal("unknown -policy exited 0")
	}
	for _, want := range []string{`"bogus"`, "cilk", "numaws"} {
		if !strings.Contains(errb, want) {
			t.Errorf("unknown -policy stderr missing %q:\n%s", want, errb)
		}
	}
}

func TestUnknownTopologyIsUsageError(t *testing.T) {
	code, _, errb := runCLI(t, "-topology", "bogus", "fig1")
	if code == 0 {
		t.Fatal("unknown -topology exited 0")
	}
	if !strings.Contains(errb, "unknown topology") || !strings.Contains(errb, "paper-4x8") {
		t.Errorf("unknown -topology stderr unhelpful:\n%s", errb)
	}
}

// TestWorkerCountFollowsTheMachine pins the -p bugfix: the default worker
// count is the machine's core count — not the stale 32-worker cap of the
// fixed-4x8 era — and out-of-range counts are usage errors naming the
// machine's range.
func TestWorkerCountFollowsTheMachine(t *testing.T) {
	// -p beyond the machine: usage error carrying the real core count.
	code, _, errb := runCLI(t, "-topology", "2x4", "-p", "9", "fig1")
	if code == 0 {
		t.Fatal("-p 9 on an 8-core machine exited 0")
	}
	if !strings.Contains(errb, "[1,8]") {
		t.Errorf("-p range error does not name the machine's range:\n%s", errb)
	}
	// -p at the machine's size is accepted (fig1 runs no simulation).
	if code, _, errb := runCLI(t, "-topology", "2x4", "-p", "8", "fig1"); code != 0 {
		t.Errorf("-p 8 on an 8-core machine rejected: %s", errb)
	}
	// A >32-core machine is fully usable: 128 workers on 8x16 is in
	// range, and 129 is the first count rejected. Under the old cap,
	// -p 128 would have been unreachable.
	if code, _, errb := runCLI(t, "-topology", "8x16", "-p", "128", "fig1"); code != 0 {
		t.Errorf("-p 128 on a 128-core machine rejected (stale 32-cap?): %s", errb)
	}
	if code, _, _ := runCLI(t, "-topology", "8x16", "-p", "129", "fig1"); code == 0 {
		t.Error("-p 129 on a 128-core machine accepted")
	}
	if code, _, _ := runCLI(t, "-p", "-3", "fig1"); code == 0 {
		t.Error("negative -p accepted")
	}
}

func TestPreCancelledContextAbortsMeasurement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code := realMain(ctx, []string{"-scale", "small", "tables"}, &out, &errb)
	if code == 0 {
		t.Fatal("cancelled measurement exited 0")
	}
	if !strings.Contains(errb.String(), "context canceled") {
		t.Errorf("stderr does not surface the cancellation:\n%s", errb.String())
	}
}

func TestFlagAfterSubcommandRejected(t *testing.T) {
	code, _, errb := runCLI(t, "fig1", "-p", "8")
	if code == 0 {
		t.Fatal("flag after subcommand exited 0")
	}
	if !strings.Contains(errb, "must precede the subcommand") {
		t.Errorf("stderr: %s", errb)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := runCLI(t, "-h"); code != 0 {
		t.Errorf("numaws -h exited %d, want 0", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-h"); code != 0 {
		t.Errorf("numaws sweep -h exited %d, want 0", code)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	code, _, errb := runCLI(t, "-resume", "table7")
	if code == 0 {
		t.Fatal("-resume without -journal exited 0")
	}
	if !strings.Contains(errb, "-resume requires -journal") {
		t.Errorf("stderr: %s", errb)
	}
}

// TestJournalResumeRoundTrip runs a small grid twice: once writing a
// journal, once resuming from it. The resumed run replays every record
// instead of re-simulating, and its printed tables are byte-identical.
func TestJournalResumeRoundTrip(t *testing.T) {
	path := t.TempDir() + "/cli.jsonl"
	code, out1, errb := runCLI(t, "-scale", "small", "-bench", "heat", "-journal", path, "table7")
	if code != 0 {
		t.Fatalf("journaled run exited %d, stderr:\n%s", code, errb)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("journal not written: %v", err)
	}
	code, out2, errb := runCLI(t, "-scale", "small", "-bench", "heat", "-journal", path, "-resume", "table7")
	if code != 0 {
		t.Fatalf("resumed run exited %d, stderr:\n%s", code, errb)
	}
	if out1 != out2 {
		t.Errorf("resumed run's output diverged:\n--- first\n%s\n--- resumed\n%s", out1, out2)
	}
	// The resume surfaces what the journal gave it: replayed rows and (on
	// a healthy file) zero skipped lines.
	if !strings.Contains(errb, "numaws: resume: replayed") || !strings.Contains(errb, "skipped 0 torn/corrupt journal line(s)") {
		t.Errorf("resume did not report its replay counts:\n%s", errb)
	}
}

// TestTimeoutFlagAccepted pins that a generous -timeout (with -retries)
// never changes a healthy run's output: the deadline hook is pure
// observation until it fires.
func TestTimeoutFlagAccepted(t *testing.T) {
	code, out1, errb := runCLI(t, "-scale", "small", "-bench", "heat", "table7")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	code, out2, errb := runCLI(t, "-scale", "small", "-bench", "heat", "-timeout", "5m", "-retries", "2", "table7")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if out1 != out2 {
		t.Errorf("-timeout changed a healthy run's output:\n--- without\n%s\n--- with\n%s", out1, out2)
	}
}

// TestUsageListsEverySubcommand pins the top-level help: every registered
// subcommand appears with a one-line description.
func TestUsageListsEverySubcommand(t *testing.T) {
	code, _, errb := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("numaws -h exited %d", code)
	}
	if !strings.Contains(errb, "Subcommands:") {
		t.Fatalf("-h does not list subcommands:\n%s", errb)
	}
	for _, sc := range subcommands {
		if sc.desc == "" {
			t.Errorf("subcommand %q has no description", sc.name)
		}
		if !strings.Contains(errb, sc.name+" ") && !strings.Contains(errb, sc.name+"\n") {
			t.Errorf("-h output missing subcommand %q:\n%s", sc.name, errb)
		}
	}
}

// TestUnknownSubcommandListsServeAndQuery: the unknown-subcommand error
// enumerates the full registry, service subcommands included.
func TestUnknownSubcommandListsServeAndQuery(t *testing.T) {
	code, _, errb := runCLI(t, "frobnicate")
	if code == 0 {
		t.Fatal("unknown subcommand exited 0")
	}
	for _, want := range []string{"unknown subcommand", "serve", "query"} {
		if !strings.Contains(errb, want) {
			t.Errorf("stderr missing %q:\n%s", want, errb)
		}
	}
}

// TestServeAndQueryRejectGlobalFlags: the global flags configure a local
// measurement session, which neither service subcommand builds — passing
// one is a usage error pointing at the subcommand's own flags.
func TestServeAndQueryRejectGlobalFlags(t *testing.T) {
	for _, cmd := range []string{"serve", "query"} {
		code, _, errb := runCLI(t, "-scale", "small", cmd)
		if code == 0 {
			t.Fatalf("numaws -scale small %s exited 0", cmd)
		}
		if !strings.Contains(errb, "does not take the global flags") {
			t.Errorf("%s stderr: %s", cmd, errb)
		}
	}
}

func TestServeRequiresStore(t *testing.T) {
	code, _, errb := runCLI(t, "serve")
	if code == 0 {
		t.Fatal("serve without -store exited 0")
	}
	if !strings.Contains(errb, "serve requires -store") {
		t.Errorf("stderr: %s", errb)
	}
}

func TestServeQueryHelpExitsZero(t *testing.T) {
	for _, cmd := range []string{"serve", "query"} {
		if code, _, _ := runCLI(t, cmd, "-h"); code != 0 {
			t.Errorf("numaws %s -h exited %d, want 0", cmd, code)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for a writer goroutine and a polling
// reader.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeQueryRoundTrip drives the service end to end through the CLI:
// an in-process `numaws serve` on an ephemeral port, then two identical
// `numaws query` runs — the second is answered entirely from the store —
// and finally a context cancellation, which must drain and exit 0.
func TestServeQueryRoundTrip(t *testing.T) {
	store := t.TempDir() + "/store.jsonl"
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()

	var serveErr syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- realMain(ctx, []string{"serve", "-addr", "localhost:0", "-store", store}, io.Discard, &serveErr)
	}()

	// The serve log line carries the resolved address.
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("serve never logged its address:\n%s", serveErr.String())
		}
		out := serveErr.String()
		if i := strings.Index(out, "serving on "); i >= 0 {
			rest := out[i+len("serving on "):]
			url = strings.Fields(rest)[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	args := []string{"query", "-server", url, "-bench", "fib", "-topologies", "2x4",
		"-p", "2", "-seeds", "1,2", "-scale", "small"}
	code, out1, errb := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cold query exited %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "2 rows: 0 cached, 2 simulated, 0 failed") {
		t.Errorf("cold query summary: %s", errb)
	}

	code, out2, errb := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("warm query exited %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "2 rows: 2 cached, 0 simulated, 0 failed") {
		t.Errorf("warm query summary: %s", errb)
	}

	// Each printed row is the line json.Encoder writes for it.
	first, _, _ := strings.Cut(out1, "\n")
	var row numaws.GridRow
	if err := json.Unmarshal([]byte(first), &row); err != nil {
		t.Fatalf("query row %q: %v", first, err)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(row); err != nil {
		t.Fatal(err)
	}
	if enc.String() != first+"\n" {
		t.Errorf("query row line:\n got %q\nwant %q", first+"\n", enc.String())
	}

	// NDJSON rows are deterministic, so the two queries agree line for
	// line once the cached marker is ignored.
	norm := func(s string) string {
		s = strings.ReplaceAll(s, `"cached":true`, `"cached":false`)
		lines := strings.Split(strings.TrimSpace(s), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if norm(out1) != norm(out2) {
		t.Errorf("query rows diverged:\n--- cold\n%s\n--- warm\n%s", out1, out2)
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Errorf("serve exited %d on cancellation, want 0 (graceful drain), stderr:\n%s", code, serveErr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve did not exit after cancellation:\n%s", serveErr.String())
	}
}
