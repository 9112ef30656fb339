package main

// The serve and query subcommands: the CLI shell over the sweep service
// (pkg/numaws's Server and QueryGrid). Both own the flags after their
// name with a dedicated FlagSet, like sweep — the global flags configure
// a local measurement Session, which neither subcommand builds.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"repro/pkg/numaws"
	"repro/pkg/numaws/wire"
)

// printUsage is the top-level -h text: the subcommand list first (the
// thing flag's default usage never shows), then the global flags.
func printUsage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "Usage: numaws [flags] <subcommand>\n\nSubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-9s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintf(w, "\nGlobal flags (before the subcommand; sweep, tournament, serve and query take their own flags after their name — see numaws <subcommand> -h):\n")
	fs.PrintDefaults()
}

// runServe runs the sweep service until ctx is cancelled (Ctrl-C or
// SIGTERM), then drains in-flight grid streams and exits 0.
func runServe(ctx context.Context, args []string, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "numaws:", strings.TrimPrefix(err.Error(), "numaws: "))
		return 1
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	storePath := fs.String("store", "", "content-addressed result store file (JSONL; created if missing; required)")
	jobs := fs.Int("jobs", runtime.NumCPU(), "max concurrent simulations across all requests")
	maxGrid := fs.Int("max-grid", 0, "largest accepted grid, in run tuples (0: the server default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("serve: unexpected argument %q", fs.Arg(0)))
	}
	if *storePath == "" {
		return fail(fmt.Errorf("serve requires -store (the result store file)"))
	}
	srv, err := numaws.NewServer(numaws.ServerConfig{
		Addr: *addr, Store: *storePath, Jobs: *jobs, MaxGridRuns: *maxGrid,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	if err := srv.ListenAndServe(ctx); err != nil {
		return fail(err)
	}
	return 0
}

// runQuery streams one grid from a running service: each row to stdout as
// an NDJSON line (wire.AppendRow's bytes, which are encoding/json's), the
// summary to stderr. Exits 1 when any row failed or the stream was
// truncated.
func runQuery(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "numaws:", strings.TrimPrefix(err.Error(), "numaws: "))
		return 1
	}
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://localhost:8080", "base URL of a running numaws serve")
	bench := fs.String("bench", "", "comma-separated benchmark names (default: every registered benchmark)")
	topos := fs.String("topologies", "", "comma-separated topology presets or SOCKETSxCORES shapes (default: paper-4x8)")
	policies := fs.String("policies", "", "comma-separated policy names (default: numaws)")
	workers := fs.String("p", "", "comma-separated worker counts; 0 means each machine's whole core set (default: 0)")
	seeds := fs.String("seeds", "", "comma-separated scheduler seeds (default: 1)")
	scale := fs.String("scale", "full", "input scale: small or full")
	serial := fs.Bool("serial", false, "include the serial-elision (TS) row per benchmark and topology")
	verify := fs.Bool("verify", true, "verify every run's result")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("query: unexpected argument %q", fs.Arg(0)))
	}
	req := numaws.GridRequest{
		Benches:    splitList(*bench),
		Topologies: splitList(*topos),
		Policies:   splitList(*policies),
		Scale:      *scale,
		Serial:     *serial,
	}
	if !*verify {
		v := false
		req.Verify = &v
	}
	for _, s := range splitList(*workers) {
		p, err := strconv.Atoi(s)
		if err != nil {
			return fail(fmt.Errorf("query: bad -p entry %q", s))
		}
		req.Workers = append(req.Workers, p)
	}
	for _, s := range splitList(*seeds) {
		sd, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fail(fmt.Errorf("query: bad -seeds entry %q", s))
		}
		req.Seeds = append(req.Seeds, sd)
	}
	var line []byte
	var encErr error
	sum, err := numaws.QueryGrid(ctx, *server, req, func(row numaws.GridRow) {
		line = append(wire.AppendRow(line[:0], &row), '\n')
		if _, err := stdout.Write(line); err != nil && encErr == nil {
			encErr = err
		}
	})
	if err != nil {
		return fail(err)
	}
	if encErr != nil {
		return fail(encErr)
	}
	fmt.Fprintf(stderr, "numaws: query: %d rows: %d cached, %d simulated, %d failed\n",
		sum.Rows, sum.Cached, sum.Simulated, sum.Failed)
	if sum.Failed > 0 {
		return 1
	}
	return 0
}
