package main

// The benchmark emitters and the bench gate. figgen owns two trajectory
// files at the repository root:
//
//   - BENCH_kernel.json (-benchjson): the internal/sim kernel
//     microbenchmark suite, run via testing.Benchmark so the numbers come
//     from exactly the code paths `go test -bench` times.
//   - BENCH_macro.json (-macrojson): every registered experiment timed
//     end-to-end through its scenario Spec, so kernel changes are gated on
//     whole-simulation wall clock, not just microbenchmarks.
//
// Each PR that touches the kernel appends its before/after numbers under
// fresh labels, so the perf trajectory is machine-readable from PR 2
// onward. -benchgate LABEL additionally enforces the perf contracts
// against a committed baseline entry: for the kernel suite, any allocating
// steady-state benchmark fails the run and a >20% ns/op regression prints
// a warning; for the macro suite, a >1.30× geometric-mean ns/op regression
// across the experiments fails the run. With a gate label set, the run also
// prints the perf trajectory across every committed baseline (pr2 → pr3 →
// pr4 → …), so each PR shows its place on the trend, not just its delta
// against the latest baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchFile is the whole trajectory document.
type benchFile struct {
	Suite   string       `json:"suite"`
	Entries []benchEntry `json:"entries"`
}

// benchEntry is one labelled run of the suite.
type benchEntry struct {
	Label      string        `json:"label"`
	Go         string        `json:"go"`
	Date       string        `json:"date"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchResult is one benchmark's outcome in go-test units.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	N           int     `json:"n"`
}

// benchRounds is how many times each benchmark is repeated; the fastest
// round is recorded. ns/op is wall clock, so the minimum across rounds is
// the estimate least polluted by scheduler and machine interference —
// allocation counts are deterministic and identical in every round.
const benchRounds = 3

// best runs one benchmark benchRounds times and keeps the fastest round.
func best(name string, bench func(b *testing.B)) benchResult {
	var min benchResult
	for i := 0; i < benchRounds; i++ {
		r := toResult(name, testing.Benchmark(bench))
		if i == 0 || r.NsPerOp < min.NsPerOp {
			min = r
		}
	}
	return min
}

// collectKernel runs the internal/sim kernel microbenchmark suite.
func collectKernel() []benchResult {
	var results []benchResult
	for _, k := range sim.KernelBenchmarks() {
		k := k
		results = append(results, best(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			k.Run(b.N)
		}))
	}
	return results
}

// collectMacro times every registered experiment end-to-end on the given
// seed. One "op" is one full Spec.Execute — building the scenario (under
// the spec's kernel tuning, when it carries one), draining the event
// queue, rendering the result — so these numbers move with the whole
// stack, kernel included.
func collectMacro(seed int64) []benchResult {
	var results []benchResult
	for _, spec := range scenario.All() {
		spec := spec
		results = append(results, best(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec.Execute(seed)
			}
		}))
	}
	return results
}

func toResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
}

// runBenchJSON executes the named suite ("sim-kernel", "macro" or
// "fabric"), merges
// the results into the trajectory file at path under the given label
// (replacing any existing entry with the same label), and prints a summary
// table to w. For the kernel suite a non-empty gateLabel enforces the
// bench gate against that baseline entry before the file is rewritten.
func runBenchJSON(w io.Writer, path, suite, label, gateLabel string, seed int64) error {
	var results []benchResult
	var err error
	switch suite {
	case "sim-kernel":
		results = collectKernel()
	case "macro":
		results = collectMacro(seed)
	case "fabric":
		if results, err = collectFabric(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown benchmark suite %q", suite)
	}

	doc, err := loadBenchFile(path, suite)
	if err != nil {
		return err
	}
	var gateErr error
	if gateLabel != "" {
		switch suite {
		case "sim-kernel":
			gateErr = gate(w, results, doc, gateLabel)
		case "fabric":
			gateErr = fabricGate(w, results, doc, gateLabel)
		default:
			gateErr = macroGate(w, results, doc, gateLabel)
		}
	}
	entry := benchEntry{
		Label:      label,
		Go:         runtime.Version(),
		Date:       time.Now().UTC().Format("2006-01-02"),
		Benchmarks: results,
	}
	replaced := false
	for i := range doc.Entries {
		if doc.Entries[i].Label == label {
			doc.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		doc.Entries = append(doc.Entries, entry)
	}
	if err := writeBenchFile(path, doc); err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("%s benchmarks — %s", suite, label),
		"benchmark", "ns/op", "B/op", "allocs/op", "iters")
	for _, r := range results {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.NsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp), fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%d", r.N))
	}
	fmt.Fprintln(w, t)
	if gateLabel != "" {
		trendTable(w, suite, doc)
	}
	fmt.Fprintf(w, "wrote %s (%d entries)\n", path, len(doc.Entries))
	return gateErr
}

// commonBenchmarks returns the sorted benchmark names present (with a
// positive ns/op) in every entry, and the sorted names that appear
// somewhere but not everywhere — the ones a trajectory over the common
// set necessarily drops.
func commonBenchmarks(entries []benchEntry) (common map[string]bool, dropped []string) {
	counts := map[string]int{}
	for _, e := range entries {
		for _, b := range e.Benchmarks {
			if b.NsPerOp > 0 {
				counts[b.Name]++
			}
		}
	}
	common = map[string]bool{}
	for name, n := range counts {
		if n == len(entries) {
			common[name] = true
		} else {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	return common, dropped
}

// trendTable places every committed baseline — and the run just recorded —
// on the suite's perf trajectory (pr2 → pr3 → pr4 → …): per entry, the
// ns/op geometric-mean ratio against the previous entry and against the
// first. Ratios are computed over the benchmarks present in *every* entry,
// so a suite that grew along the way (MetroDense only exists from pr6 on)
// compares like against like at every step; benchmarks outside the common
// set are named in a warning instead of silently skewing the curve. The
// gate enforces only the chosen baseline; the trajectory shows whether a
// PR's "within gate" is a plateau or a slow slide. Entries usually come
// from different machines, so the ratios read as trends, not measurements.
func trendTable(w io.Writer, suite string, doc benchFile) {
	entries := doc.Entries
	if len(entries) < 2 {
		return
	}
	common, dropped := commonBenchmarks(entries)
	if len(dropped) > 0 {
		fmt.Fprintf(w, "trend %s: geomeans cover the %d benchmarks shared by all %d entries; not in every entry (dropped): %s\n",
			suite, len(common), len(entries), strings.Join(dropped, ", "))
	}
	if len(common) == 0 {
		fmt.Fprintf(w, "trend %s: no benchmark appears in every entry; no trajectory to report\n", suite)
		return
	}
	t := stats.NewTable(fmt.Sprintf("%s perf trajectory (%d common benchmarks)", suite, len(common)),
		"entry", "date", "benchmarks", "vs prev", "vs first")
	for i, e := range entries {
		vsPrev, vsFirst := "—", "—"
		if i > 0 {
			if g, n := geomeanOver(entries[i-1].Benchmarks, e.Benchmarks, common); n > 0 {
				vsPrev = fmt.Sprintf("×%.3f", g)
			}
			if g, n := geomeanOver(entries[0].Benchmarks, e.Benchmarks, common); n > 0 {
				vsFirst = fmt.Sprintf("×%.3f", g)
			}
		}
		t.AddRow(e.Label, e.Date, fmt.Sprintf("%d", len(e.Benchmarks)), vsPrev, vsFirst)
	}
	fmt.Fprintln(w, t)
}

// geomeanOver returns the geometric mean of cur/base ns/op ratios over the
// named benchmarks (all benchmarks when names is nil), and how many
// contributed.
func geomeanOver(base, cur []benchResult, names map[string]bool) (float64, int) {
	m := make(map[string]float64, len(base))
	for _, b := range base {
		if b.NsPerOp > 0 && (names == nil || names[b.Name]) {
			m[b.Name] = b.NsPerOp
		}
	}
	var sumLog float64
	n := 0
	for _, r := range cur {
		if b, ok := m[r.Name]; ok && r.NsPerOp > 0 {
			sumLog += math.Log(r.NsPerOp / b)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sumLog / float64(n)), n
}

// runTrend prints the perf trajectories of all three committed suites —
// kernel, macro and fabric — from their trajectory files, then the
// cross-suite summary placing every baseline label on every suite's
// curve. It is figgen -trend: read-only reporting, no benchmarks run, so
// CI can put the full trajectory in the job summary for free.
func runTrend(w io.Writer, o options) error {
	files := []struct{ suite, path, fallback string }{
		{"sim-kernel", o.benchJSON, "BENCH_kernel.json"},
		{"macro", o.macroJSON, "BENCH_macro.json"},
		{"fabric", o.fabricJSON, "BENCH_fabric.json"},
	}
	var docs []benchFile
	for _, f := range files {
		path := f.path
		if path == "" {
			path = f.fallback
		}
		if _, err := os.Stat(path); os.IsNotExist(err) {
			fmt.Fprintf(w, "trend: %s suite: no %s; skipping\n", f.suite, path)
			continue
		}
		doc, err := loadBenchFile(path, f.suite)
		if err != nil {
			return err
		}
		trendTable(w, f.suite, doc)
		docs = append(docs, doc)
	}
	if len(docs) == 0 {
		return fmt.Errorf("trend: no trajectory files found (run the bench suites first, or pass -benchjson/-macrojson/-fabricjson paths)")
	}
	crossSuiteTrend(w, docs)
	return nil
}

// crossSuiteTrend prints one table spanning every suite: rows are the
// union of baseline labels in canonical order (pr2-before, pr2-after,
// pr3-before, …), columns are the suites, cells are each entry's
// vs-first geomean over that suite's common benchmark set. A dash means
// the suite has no entry under that label — the fabric suite only exists
// from pr9 on, which is exactly the kind of gap this table makes visible
// instead of hiding.
func crossSuiteTrend(w io.Writer, docs []benchFile) {
	header := []string{"entry"}
	vsFirst := make([]map[string]string, len(docs))
	labelSet := map[string]bool{}
	for i, doc := range docs {
		header = append(header, doc.Suite)
		vsFirst[i] = map[string]string{}
		entries := doc.Entries
		if len(entries) == 0 {
			continue
		}
		common, _ := commonBenchmarks(entries)
		for _, e := range entries {
			labelSet[e.Label] = true
			if g, n := geomeanOver(entries[0].Benchmarks, e.Benchmarks, common); n > 0 {
				vsFirst[i][e.Label] = fmt.Sprintf("×%.3f", g)
			}
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		ri, oki := labelRank(labels[i])
		rj, okj := labelRank(labels[j])
		if oki != okj {
			return oki // parseable pr labels first, ad-hoc labels last
		}
		if oki && ri != rj {
			return ri < rj
		}
		return labels[i] < labels[j]
	})
	t := stats.NewTable("cross-suite perf trajectory (geomean vs each suite's first entry)", header...)
	for _, l := range labels {
		row := []string{l}
		for i := range docs {
			cell, ok := vsFirst[i][l]
			if !ok {
				cell = "—"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(w, t)
}

// labelRank maps a canonical baseline label ("pr<N>-before" /
// "pr<N>-after") onto its trajectory position; ok is false for ad-hoc
// labels, which sort after all canonical ones.
func labelRank(label string) (rank int, ok bool) {
	var n int
	var phase string
	if _, err := fmt.Sscanf(label, "pr%d-%s", &n, &phase); err != nil {
		return 0, false
	}
	switch phase {
	case "before":
		return 2 * n, true
	case "after":
		return 2*n + 1, true
	}
	return 0, false
}

// gate enforces the kernel perf contract for a fresh suite run: zero
// allocations per op on every benchmark (hard failure — the zero-alloc
// guarantee is the kernel's core invariant), and ns/op within 20% of the
// baseline entry (warning only: CI machines are too noisy for a hard
// wall-clock gate, but the warning makes a creeping regression visible in
// the job log).
func gate(w io.Writer, results []benchResult, doc benchFile, baseLabel string) error {
	var base *benchEntry
	for i := range doc.Entries {
		if doc.Entries[i].Label == baseLabel {
			base = &doc.Entries[i]
			break
		}
	}
	if base == nil {
		return fmt.Errorf("bench gate: baseline label %q not found in trajectory file", baseLabel)
	}
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var failed bool
	for _, r := range results {
		if r.AllocsPerOp > 0 {
			failed = true
			fmt.Fprintf(w, "BENCH GATE FAIL: %s allocates %d allocs/op (%d B/op); the kernel contract is 0\n",
				r.Name, r.AllocsPerOp, r.BytesPerOp)
		}
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(w, "bench gate: %s has no %q baseline entry (new benchmark)\n", r.Name, baseLabel)
			continue
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*1.20 {
			fmt.Fprintf(w, "BENCH GATE WARN: %s %.1f ns/op is %.0f%% above the %q baseline (%.1f ns/op)\n",
				r.Name, r.NsPerOp, (r.NsPerOp/b.NsPerOp-1)*100, baseLabel, b.NsPerOp)
		}
	}
	if failed {
		return fmt.Errorf("bench gate: allocating kernel benchmark (see above)")
	}
	return nil
}

// macroGate enforces the macro wall-clock contract: across the experiments
// shared with the baseline entry, the geometric mean of ns/op ratios must
// stay at or under 1.30×. A single experiment may legitimately trade away
// wall clock (PR 3's wheel did), but the suite as a whole regressing 30%
// means the scale path got slower and the run fails. The geomean weighs
// every experiment equally, so one noisy long experiment cannot mask — or
// fake — a broad regression.
func macroGate(w io.Writer, results []benchResult, doc benchFile, baseLabel string) error {
	var base *benchEntry
	for i := range doc.Entries {
		if doc.Entries[i].Label == baseLabel {
			base = &doc.Entries[i]
			break
		}
	}
	if base == nil {
		return fmt.Errorf("macro gate: baseline label %q not found in trajectory file", baseLabel)
	}
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var sumLog float64
	n := 0
	for _, r := range results {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(w, "macro gate: %s has no %q baseline entry (new experiment)\n", r.Name, baseLabel)
			continue
		}
		if b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		sumLog += math.Log(r.NsPerOp / b.NsPerOp)
		n++
	}
	if n == 0 {
		return fmt.Errorf("macro gate: no experiments overlap with baseline %q", baseLabel)
	}
	geo := math.Exp(sumLog / float64(n))
	fmt.Fprintf(w, "MACRO GATE: geomean ×%.3f vs %q over %d experiments (fail threshold ×1.30)\n",
		geo, baseLabel, n)
	if geo > 1.30 {
		return fmt.Errorf("macro gate: geomean ×%.3f vs %q exceeds the 1.30× threshold", geo, baseLabel)
	}
	return nil
}

// loadBenchFile reads an existing trajectory file, or starts a fresh one if
// the path does not exist yet.
func loadBenchFile(path, suite string) (benchFile, error) {
	doc := benchFile{Suite: suite}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return doc, nil
	}
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("parse %s: %w", path, err)
	}
	if doc.Suite != suite {
		return doc, fmt.Errorf("%s holds suite %q, not %q", path, doc.Suite, suite)
	}
	return doc, nil
}

func writeBenchFile(path string, doc benchFile) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
