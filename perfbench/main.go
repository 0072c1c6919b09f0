// Command perfbench is the repository benchmark. It sweeps a (spec × seed)
// grid through the public scenario API — Runner over a Local pool, or over
// Cache{Shard over a loopback ServeNet worker, a loopback ServeStore} —
// checks every output against the repository's oracles, and prints one
// JSON result line.
//
// Run it from the root of a checkout (run.sh builds it there first):
//
//	bash perfbench/run.sh --workload catalogue --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced sweeps. With
// --trace 1 it interleaves untraced sweeps with traced ones (spans recorded
// around each layer boundary plus a CPU profile folded by Go package) and
// prints the per-layer metrics instead. The metric names, their units and
// the layer each should move are listed in README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result. It
// returns 2 for a bad command line and 1 when the benchmark cannot set up
// or run at all; a run whose outputs fail a check still exits 0 and
// reports them as failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "first seed of the workload's consecutive seed block")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root holding go.mod and internal/exp/testdata")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     *root,
		workDir:  filepath.Join(*root, ".bench_build"),
		log:      stderr,
	}
	out, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the machine stamp, then the result as the last line of w.
func report(w io.Writer, out outcome) error {
	stamp, err := json.Marshal(map[string]any{"workload": out.workload, "machine": out.machine,
		"seed_first": out.seeds[0], "seed_count": len(out.seeds)})
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(out.metrics)),
	}
	for _, m := range out.metrics {
		if _, dup := line.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		line.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	res, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", stamp, res)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
