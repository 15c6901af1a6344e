// Command perfbench is the repository's end-to-end benchmark. It boots
// the sweep service (internal/serve, fronting the internal/cluster
// coordinator and one HTTP worker on the cluster workload) inside its
// own process, drives it over loopback HTTP with one seeded workload for
// a fixed wall-clock window, checks every result document, and prints
// one JSON object of metrics as the last line of standard output:
// end-to-end metrics untraced (--trace 0), per-layer metrics from a
// traced run (--trace 1). Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload grid-loop --seed 1 --seconds 15 --trace 0
//
// README.md in this directory lists the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (job requests and repeats are drawn from it)")
	seconds := fs.Int("seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for job logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds ≥ 1, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	res, err := measure(options{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.describe(os.Stderr)
	line, err := json.Marshal(res.output(*trace == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// options is one benchmark invocation.
type options struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	out     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON object the command prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output(traced bool) output {
	m := r.e2e
	if traced {
		m = r.layers
	}
	return output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// describe prints every computed metric and each failure, for people.
func (r *result) describe(f *os.File) {
	for _, d := range r.details {
		fmt.Fprintln(f, d)
	}
	for _, set := range []map[string]metric{r.e2e, r.layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "%-28s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, e := range r.failures {
		fmt.Fprintf(f, "FAIL %s\n", e)
	}
	if r.tracePath != "" {
		fmt.Fprintf(f, "spans: %s\n", r.tracePath)
	}
}

// workDir returns a fresh directory for one run's files.
func workDir(out string, o options) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, fmt.Sprintf("run-%s-%d-", o.w.name, o.seed))
}

// spanPath is where a traced run writes its spans.
func spanPath(out string, o options) string {
	return filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.json", o.w.name, o.seed))
}
