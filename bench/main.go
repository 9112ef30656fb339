// Command bench is the repository's end-to-end benchmark: four named
// workloads that exercise the simulator pipeline and the sweep service the
// way users run them, with every end-to-end metric printed by name and unit
// and every output checked for correctness. A separate traced run
// attributes host time to the repository's layers by timing calls into
// their public functions from outside.
//
// Usage, from the root of a checkout:
//
//	bash bench/run.sh [-seed N] [-seconds S]             all four workloads
//	bash bench/run.sh -workload NAME [-seed N] [-trace]  one workload
//	bash bench/run.sh -out head.json ...                 also write results
//	bash bench/run.sh -compare b1.json,b2.json h1.json,h2.json   apply the bounds
//
// Without -workload every workload runs in a fresh child process of this
// binary, one after another. See README.md for the workloads, the metric
// glossary and the traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// realMain is main with its environment injected. It returns the exit
// code: 0 when every workload ran and checked out, 1 when an operation
// failed or a comparison found a regression, 2 on a usage or set-up error.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "base seed: the scheduler seed of the grid workloads, the tuple-seed offset of the service workloads")
	seconds := fs.Int("seconds", 20, "length of each workload's timed phase")
	trace := fs.Bool("trace", false, "traced run: report per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "also write the results, with sample counts and quartiles, to this JSON file")
	compare := fs.Bool("compare", false, "compare runs against the BENCHMARK.json bounds: -compare BASE HEAD, each a comma-separated list of -out files")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two comma-separated lists of -out files: -compare BASE HEAD")
			return 2
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds %d must be at least 1\n", *seconds)
		return 2
	}
	cfg := newConfig(root, *seed, *seconds, *trace)
	if *workload == "" {
		return runAll(ctx, cfg, *out, stdout, stderr)
	}
	w, ok := workloadNamed(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(ctx, cfg, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	rep := newReport(cfg, []result{res})
	fmt.Fprint(stdout, rep.table())
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(res.line(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "-trace 0" and "--trace 1" into "-trace=0" and
// "-trace=1": the flag package reads a boolean flag's value only in the
// "=" form, and scripted callers pass it separated.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot locates the repository root: the nearest directory at or above
// the working directory that holds both go.mod and bench/go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding go.mod and bench/go.mod) at or above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// runAll runs every workload in a fresh child process of this binary, one
// after another, and prints the combined table. Each child writes its
// results to a file the parent merges.
func runAll(ctx context.Context, cfg *config, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "children-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	code := 0
	var results []result
	for _, w := range workloadList {
		file := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), fmt.Sprintf("-trace=%t", cfg.trace), "-out", file}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Dir = cfg.root
		cmd.Stdout, cmd.Stderr = stderr, stderr
		fmt.Fprintf(stderr, "bench: running %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		var rep report
		if err := readJSON(file, &rep); err != nil || len(rep.Results) != 1 {
			fmt.Fprintf(stderr, "bench: %s left no results\n", w.name)
			code = 1
			continue
		}
		results = append(results, rep.Results[0])
	}
	rep := newReport(cfg, results)
	fmt.Fprint(stdout, rep.table())
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return code
}
