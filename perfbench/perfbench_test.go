package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// benchmarkFile is the benchmark definition at the repository root.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny is a one-pair run of w on a small grid, writing its scratch files
// under a test directory.
func tiny(t *testing.T, w workload, trace bool) config {
	t.Helper()
	if w.seeds > 2 {
		w.seeds = 2
	}
	return config{workload: w, seed: 1, seconds: 1e-3, trace: trace, root: "..",
		workDir: t.TempDir(), log: &bytes.Buffer{}, maxPairs: 1, setupRepeats: 1}
}

// result runs cfg and parses the last line it prints.
func result(t *testing.T, cfg config) resultLine {
	t.Helper()
	out, err := bench(cfg)
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, cfg.log)
	}
	var buf bytes.Buffer
	if err := report(&buf, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	return res
}

// TestSmoke runs every defined workload on a tiny grid, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json names are printed, with
// their units, and that every run passes its checks.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range b.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				res := result(t, tiny(t, workloads[name], trace))
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if !trace && res.Metrics["sweep_s"].Value <= 0 {
					t.Errorf("sweep_s = %v", res.Metrics["sweep_s"].Value)
				}
			})
		}
	}
}

// TestLayerSpecsMatchRegistry keeps the exp.<spec>.ms_p50 metrics in step
// with the catalogue.
func TestLayerSpecsMatchRegistry(t *testing.T) {
	if got := scenario.Names(); !slices.Equal(got, layerSpecs) {
		t.Fatalf("registry %v, benchmark layer specs %v", got, layerSpecs)
	}
}

// TestFlippedGoldenBitFailsRun: one flipped bit in the seed-1 golden must
// fail that run (in setup and in both sweeps of the pair) without
// stopping the benchmark.
func TestFlippedGoldenBitFailsRun(t *testing.T) {
	cfg := tiny(t, workload{name: "golden", specs: []string{"fig1", "e15"}, seeds: 2}, false)
	cfg.flipGolden = true
	res := result(t, cfg)
	if res.Correct || res.Failed != 3 {
		t.Fatalf("correct=%v failed=%d, want one failed fig1 seed-1 run per sweep (3)\n%s",
			res.Correct, res.Failed, cfg.log)
	}
	if !strings.Contains(cfg.log.(*bytes.Buffer).String(), "fig1 seed 1") {
		t.Errorf("failure not reported:\n%s", cfg.log)
	}
}

// TestChaosDropConnShowsAsRetries: a worker connection dropped mid-sweep
// is retried on a new connection, shows in scenario.shard.retries and
// .failures, and changes no digest: the only failed runs are the failed
// lease attempts themselves.
func TestChaosDropConnShowsAsRetries(t *testing.T) {
	cfg := tiny(t, workloads["fabric"], true)
	cfg.maxPairs = 2
	cfg.chaos = "gen0:drop-conn-after=3"
	res := result(t, cfg)
	retries := res.Metrics["scenario.shard.retries"].Value
	failures := res.Metrics["scenario.shard.failures"].Value
	if retries < 1 || failures < 1 {
		t.Fatalf("retries=%v failures=%v, want both ≥ 1\n%s", retries, failures, cfg.log)
	}
	if float64(res.Failed) != failures {
		t.Fatalf("failed=%d but only %v lease attempts failed: a digest changed\n%s", res.Failed, failures, cfg.log)
	}
	if strings.Contains(cfg.log.(*bytes.Buffer).String(), "check failed") {
		t.Errorf("an output check failed:\n%s", cfg.log)
	}
}

// TestClosedStoreCountsAsFailures: a store that refuses connections makes
// the Cache fall back to its local directory; the benchmark must count
// that as failed runs and finish promptly instead of hanging.
func TestClosedStoreCountsAsFailures(t *testing.T) {
	cfg := tiny(t, workloads["fabric"], false)
	cfg.closeStore = true
	start := time.Now()
	res := result(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d, want failures\n%s", res.Correct, res.Failed, cfg.log)
	}
	if d := time.Since(start); d > time.Minute {
		t.Errorf("took %v", d)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]time.Duration{{5, 8}, {0, 3}, {2, 4}, {7, 12}}
	if got := covered(ivs, 1, 10); got != 3+5 { // [1,4) and [5,10)
		t.Fatalf("covered = %v, want 8", got)
	}
}

func TestSaturatedUntil(t *testing.T) {
	execs := []span{{Start: 0, End: 10}, {Start: 2, End: 6}, {Start: 6, End: 8}, {Start: 9, End: 20}}
	if got := saturatedUntil(execs, 2, 0); got != 10 {
		t.Fatalf("saturatedUntil = %v, want 10", got)
	}
	if got := saturatedUntil(execs, 3, 0); got != 0 {
		t.Fatalf("saturatedUntil never saturated = %v, want 0", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string][]string{
		"mac.metro":     {"repro/internal/mac/metro.(*Pareto).Sample"},
		"math":          {"math.Pow", "repro/internal/mac/metro.(*Pareto).Sample"},
		"runtime.alloc": {"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/sim.New"},
		"runtime.gc":    {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"syscall":       {"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Read"},
		"scenario":      {"encoding/json.Marshal", "repro/internal/scenario.writeFrame"},
		"repro.other":   {"repro/internal/core.NewHotspot"},
		"stdlib.other":  {"encoding/json.Marshal"},
	}
	for want, stack := range cases {
		if got := bucketOf(stack); got != want {
			t.Errorf("bucketOf(%v) = %s, want %s", stack, got, want)
		}
	}
}
