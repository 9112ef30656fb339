package main

// Metric definitions, sample statistics, the results document, and the
// -compare rule.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric, its unit and its better direction.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. An "op" is what the user waits for: one
// repetition of a grid workload, one query of a service workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"runs_per_s", "1/s", true},
	{"op_ms_p50", "ms", false},
	{"cpu_ms_per_run", "ms", false},
	{"alloc_kb_per_run", "KiB", false},
	{"rss_mb", "MiB", false},
}

// reportedOnly are end-to-end metrics shown in the table and the -out file
// but not gated: the peak RSS, a single high-water mark that swings with
// GC timing, and the service workloads' tail and first-row latencies,
// which a grid repetition does not have (every gated metric must exist on
// every workload).
var reportedOnly = []metricDef{
	{"max_rss_mb", "MiB", false},
	{"query_ms_p90", "ms", false},
	{"query_ms_p99", "ms", false},
	{"ttfb_ms_p50", "ms", false},
}

// perLayer are the traced run's metrics: where a workload's host time goes.
// A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.run_s", "s", false},
	{"trace.overhead_frac", "fraction", false},
	{"workloads.inputs_built", "count", false},
	{"workloads.ref_computes", "count", false},
	{"workloads.inputs_rebuilt", "count", false},
	{"workloads.checkout_s", "s", false},
	{"workloads.prepare_s", "s", false},
	{"workloads.verify_s", "s", false},
	{"workloads.compute_s", "s", false},
	{"harness.serial_s", "s", false},
	{"cache.access_s", "s", false},
	{"cache.calls", "count", false},
	{"cache.ns_per_call", "ns", false},
	{"core.resumes", "count", false},
	{"core.handoff_ns_per_resume", "ns", false},
	{"core.handoff_s", "s", false},
	{"sched.events", "count", false},
	{"sched.ns_per_event", "ns", false},
	{"sched.engine_s", "s", false},
	{"exec.utilization", "fraction", true},
	{"store.put_ms_p50", "ms", false},
	{"harness.execute_ms_p50", "ms", false},
	{"store.get_us_p50", "us", false},
	{"server.us_per_row", "us", false},
	{"store.open_s", "s", false},
	{"store.records", "count", false},
	{"cache.remote_frac", "fraction", false},
	{"sched.steal_success_frac", "fraction", true},
	{"sched.push_success_frac", "fraction", true},
}

// stat summarizes one metric's samples within a run.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
}

// summarize reduces samples to their count, median and quartiles.
func summarize(unit string, xs []float64) stat {
	s := sorted(xs)
	return stat{Unit: unit, N: len(s), Median: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75)}
}

// single is a metric measured once per run.
func single(unit string, v float64) stat { return stat{Unit: unit, N: 1, Median: v, P25: v, P75: v} }

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile reports the q-quantile of xs only when at least minBeyond
// samples lie beyond it; a tail estimated from fewer samples does not
// repeat from run to run.
func percentile(xs []float64, q float64) (float64, bool) {
	// The epsilon keeps 0.9*100 from rounding up to 91 ranks.
	if beyond := len(xs) - int(math.Ceil(q*float64(len(xs))-1e-9)); beyond < minBeyond {
		return 0, false
	}
	return quantile(sorted(xs), q), true
}

// result is one workload's outcome.
type result struct {
	Workload  string          `json:"workload"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	Failures  []string        `json:"failures,omitempty"`
}

// lineMetric is one metric of the machine-read result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// line projects the result onto the machine-read line: the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one.
func (r result) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		l.Metrics[d.name] = lineMetric{Value: r.Metrics[d.name].Median, Unit: d.unit}
	}
	return l
}

// hostInfo identifies the machine a report was measured on; wall times
// compare only between reports from the same host.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report is the -out document.
type report struct {
	Host    hostInfo `json:"host"`
	Seed    int64    `json:"seed"`
	Seconds int      `json:"seconds"`
	Trace   bool     `json:"trace"`
	Results []result `json:"results"`
}

func newReport(cfg *config, results []result) report {
	return report{Host: currentHost(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Results: results}
}

// table renders the report for people.
func (rep report) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: %s, nproc %d, GOMAXPROCS %d, %s; seed %d, %d s per workload\n",
		rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Seed, rep.Seconds)
	for _, r := range rep.Results {
		verdict := "correct"
		if !r.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(&b, "\n%s: %s, %d ops attempted, %d failed\n", r.Workload, verdict, r.Attempted, r.Failed)
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  failure: %s\n", f)
		}
		fmt.Fprintf(&b, "  %-28s %-8s %5s %14s %14s %14s\n", "metric", "unit", "n", "median", "p25", "p75")
		for _, defs := range [][]metricDef{endToEnd, reportedOnly, perLayer} {
			for _, d := range defs {
				s, ok := r.Metrics[d.name]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "  %-28s %-8s %5d %14.6g %14.6g %14.6g\n", d.name, s.Unit, s.N, s.Median, s.P25, s.P75)
			}
		}
	}
	return b.String()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// benchmarkSpec is the part of BENCHMARK.json the comparison applies.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec)
	return spec, err
}

// runCompare applies the BENCHMARK.json bounds to two sets of -out files,
// one row per workload. Each side is a comma-separated list of files, one
// per run; a side's value is the median over its runs. A metric regresses
// when the head is worse than the base by more than its bound. It is
// unresolved when either side's run-to-run quartile spread exceeds the
// bound, so the runs cannot tell a change from noise — unless every head
// run reads better than every base run. It exits 1 when anything
// regressed.
func runCompare(root, baseArg, headArg string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sides [2][]report
	for i, arg := range []string{baseArg, headArg} {
		for _, path := range strings.Split(arg, ",") {
			var rep report
			if err := readJSON(path, &rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			sides[i] = append(sides[i], rep)
		}
	}
	hosts := map[hostInfo]bool{}
	for _, side := range sides {
		for _, rep := range side {
			hosts[rep.Host] = true
		}
	}
	if len(hosts) > 1 {
		fmt.Fprintln(stderr, "bench: note: the reports come from different hosts; wall times do not compare")
	}
	if len(sides[0]) < 2 || len(sides[1]) < 2 {
		fmt.Fprintln(stderr, "bench: note: with one run on a side its run-to-run spread is unknown; pass several -out files per side")
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(stdout, " %24s", m.Name)
	}
	fmt.Fprintln(stdout)
	for _, w := range spec.Workloads {
		base, head := runValues(sides[0], w.Name), runValues(sides[1], w.Name)
		if len(base) == 0 || len(head) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-14s", w.Name)
		for _, m := range spec.EndToEnd {
			v, regressed := verdict(base[m.Name], head[m.Name], m.Better == "higher", m.Bound)
			if regressed {
				code = 1
			}
			fmt.Fprintf(stdout, " %24s", v)
		}
		fmt.Fprintln(stdout)
	}
	return code
}

// runValues collects a workload's per-run medians, metric by metric.
func runValues(reps []report, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, rep := range reps {
		for _, r := range rep.Results {
			if r.Workload != workload {
				continue
			}
			for name, s := range r.Metrics {
				out[name] = append(out[name], s.Median)
			}
		}
	}
	return out
}

// verdict classifies one metric's change from the base runs to the head
// runs and reports whether it regressed.
func verdict(base, head []float64, higher bool, bound float64) (string, bool) {
	b, h := summarize("", base), summarize("", head)
	if len(base) == 0 || len(head) == 0 || b.Median == 0 {
		return "n/a", false
	}
	change := (h.Median - b.Median) / b.Median
	worse := change
	if higher {
		worse = -change
	}
	sb, sh := sorted(base), sorted(head)
	headWins := higher && sh[0] > sb[len(sb)-1] || !higher && sh[len(sh)-1] < sb[0]
	v := "ok"
	switch {
	case (spread(b) > bound || spread(h) > bound) && !headWins:
		v = "unresolved"
	case worse > bound:
		v = "REGRESSED"
	case worse < -bound:
		v = "better"
	}
	return fmt.Sprintf("%+.1f%% %s", 100*change, v), v == "REGRESSED"
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread is a stat's quartile distance as a share of its median.
func spread(s stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.P75-s.P25) / math.Abs(s.Median)
}
