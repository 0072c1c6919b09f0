package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// goldenFile pins every registered spec's seed-1 values; the repository's
// golden test compares against the same file.
const goldenFile = "internal/exp/testdata/golden_seed1.json"

// runKey names one (spec, seed) run.
type runKey struct {
	spec string
	seed int64
}

// oracle holds what a run's output is checked against: the seed-1 golden
// values, each [analytic] spec's own tolerance, and the EncodeResult
// digest every repeat of a run must reproduce.
type oracle struct {
	log     io.Writer
	golden  map[string]map[string]float64
	digests map[runKey][sha256.Size]byte
	size    map[runKey]int
	reports int
}

func loadOracle(root string, flipGolden bool, log io.Writer) (*oracle, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	var docs []struct {
		Experiment string             `json:"experiment"`
		Values     map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	o := &oracle{log: log, golden: map[string]map[string]float64{},
		digests: map[runKey][sha256.Size]byte{}, size: map[runKey]int{}}
	for _, d := range docs {
		o.golden[d.Experiment] = d.Values
	}
	if flipGolden {
		// The mutation check: the lowest mantissa bit of the first value of
		// the first spec, so exactly that spec's seed-1 run must fail.
		vals := o.golden[docs[0].Experiment]
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals[keys[0]] = math.Float64frombits(math.Float64bits(vals[keys[0]]) ^ 1)
	}
	return o, nil
}

// check verifies every per-seed result of a sweep and returns how many
// runs failed. A run fails if its seed-1 values differ from the golden in
// any bit, if it is [analytic] and a simulated aggregate strays from its
// closed form by more than the spec's tolPct, or if its digest differs
// from the first digest recorded for the same (spec, seed). When tr is
// non-nil each digest's EncodeResult is recorded as a span.
func (o *oracle) check(aggs []scenario.AggResult, tr *tracer) int {
	failed := 0
	for _, a := range aggs {
		for i, res := range a.PerSeed {
			if problem := o.checkRun(a.Spec, a.Seeds[i], res, tr); problem != "" {
				failed++
				o.report("%s seed %d: %s", a.Spec.Name, a.Seeds[i], problem)
			}
		}
	}
	return failed
}

func (o *oracle) checkRun(spec scenario.Spec, seed int64, res scenario.Result, tr *tracer) string {
	start := tr.now()
	enc, err := scenario.EncodeResult(res)
	if tr != nil {
		tr.digest(spec.Name, seed, start)
	}
	if err != nil {
		return fmt.Sprintf("EncodeResult: %v", err)
	}
	sum := sha256.Sum256(enc)
	k := runKey{spec.Name, seed}
	ref, seen := o.digests[k]
	if !seen {
		o.digests[k], o.size[k] = sum, len(enc)
	}
	if seen && ref != sum {
		return "digest differs from an earlier run of the same seed"
	}
	if seed == 1 {
		if p := goldenMismatch(o.golden[spec.Name], res.Values); p != "" {
			return p
		}
	}
	if spec.HasTag("analytic") {
		if worst, ok := analyticError(res); !ok {
			return fmt.Sprintf("closed-form error %.3f%% exceeds tolPct %g", worst, res.Values["tolPct"])
		}
	}
	return ""
}

func goldenMismatch(want, got map[string]float64) string {
	if want == nil {
		return "no golden values for this spec"
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d values, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("value %q missing", k)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %v, golden %v (bits differ)", k, g, w)
		}
	}
	return ""
}

// analyticError returns the largest relative error, in percent, between a
// simulated aggregate simX and its closed form modelX, and whether every
// pair is within the run's own tolPct (the same convention the
// repository's analytic test applies).
func analyticError(res scenario.Result) (worst float64, ok bool) {
	tol := res.Values["tolPct"]
	pairs := 0
	for k, simV := range res.Values {
		if !strings.HasPrefix(k, "sim") {
			continue
		}
		modV, has := res.Values["model"+k[3:]]
		if !has {
			continue
		}
		pairs++
		if modV == 0 {
			return math.Inf(1), false
		}
		worst = math.Max(worst, math.Abs(simV-modV)/math.Abs(modV)*100)
	}
	return worst, pairs > 0 && tol > 0 && worst <= tol
}

// bytesPerResult is the mean EncodeResult size over the grid's runs.
func (o *oracle) bytesPerResult() float64 {
	if len(o.size) == 0 {
		return 0
	}
	total := 0
	for _, n := range o.size {
		total += n
	}
	return float64(total) / float64(len(o.size))
}

// report prints the first few failures; a systematic fault would
// otherwise print one line per run.
func (o *oracle) report(format string, args ...any) {
	if o.reports++; o.reports <= 10 {
		fmt.Fprintf(o.log, "perfbench: check failed: "+format+"\n", args...)
	}
}
