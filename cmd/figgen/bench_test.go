package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestTrendRejectsSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{trend: true, names: []string{"e3"}}); err == nil ||
		!strings.Contains(err.Error(), "-trend") {
		t.Error("-trend with a selection should error")
	}
}

func TestTrendTableIntersection(t *testing.T) {
	doc := benchFile{Suite: "macro", Entries: []benchEntry{
		{Label: "pr3-after", Date: "2026-01-01", Benchmarks: []benchResult{
			{Name: "e3", NsPerOp: 100}, {Name: "e4", NsPerOp: 100},
		}},
		{Label: "pr6-after", Date: "2026-02-01", Benchmarks: []benchResult{
			{Name: "e3", NsPerOp: 50}, {Name: "e4", NsPerOp: 200},
			{Name: "e18", NsPerOp: 100}, // new since pr6: must not skew
		}},
	}}
	var buf bytes.Buffer
	trendTable(&buf, "macro", doc)
	out := buf.String()
	// Geomean over the intersection {e3, e4}: sqrt(0.5 × 2) = 1.000.
	if !strings.Contains(out, "×1.000") {
		t.Errorf("intersection geomean wrong:\n%s", out)
	}
	if !strings.Contains(out, "dropped") || !strings.Contains(out, "e18") {
		t.Errorf("missing dropped-benchmark warning naming e18:\n%s", out)
	}
}

func TestCrossSuiteTrendOrdersLabels(t *testing.T) {
	mk := func(suite string, labels ...string) benchFile {
		f := benchFile{Suite: suite}
		for _, l := range labels {
			f.Entries = append(f.Entries, benchEntry{
				Label:      l,
				Benchmarks: []benchResult{{Name: "b", NsPerOp: 100}},
			})
		}
		return f
	}
	var buf bytes.Buffer
	crossSuiteTrend(&buf, []benchFile{
		mk("sim-kernel", "pr2-before", "pr2-after", "pr10-after"),
		mk("macro", "pr3-before", "pr10-after"),
		mk("fabric", "pr9-before", "pr9-after", "pr10-after"),
	})
	out := buf.String()
	// Canonical order, numeric: pr2 < pr3 < pr9 < pr10 (not lexical).
	order := []string{"pr2-before", "pr2-after", "pr3-before", "pr9-before", "pr9-after", "pr10-after"}
	last := -1
	for _, l := range order {
		i := strings.Index(out, l+" ")
		if i < 0 {
			i = strings.Index(out, l)
		}
		if i < 0 {
			t.Fatalf("missing label %s:\n%s", l, out)
		}
		if i < last {
			t.Errorf("label %s out of order:\n%s", l, out)
		}
		last = i
	}
	// A suite without the label shows a dash, not a fabricated number.
	if !strings.Contains(out, "—") {
		t.Errorf("missing dash for absent labels:\n%s", out)
	}
}

func TestLabelRank(t *testing.T) {
	for _, c := range []struct {
		label string
		rank  int
		ok    bool
	}{
		{"pr2-before", 4, true},
		{"pr2-after", 5, true},
		{"pr10-before", 20, true},
		{"dev", 0, false},
		{"nightly-pr10", 0, false},
		{"pr3-nope", 0, false},
	} {
		r, ok := labelRank(c.label)
		if ok != c.ok || (ok && r != c.rank) {
			t.Errorf("labelRank(%q) = %d, %v; want %d, %v", c.label, r, ok, c.rank, c.ok)
		}
	}
}

func TestRunTrendReadsCommittedFiles(t *testing.T) {
	dir := t.TempDir()
	kernel := filepath.Join(dir, "k.json")
	macro := filepath.Join(dir, "m.json")
	if err := writeBenchFile(kernel, benchFile{Suite: "sim-kernel", Entries: []benchEntry{
		{Label: "pr2-after", Benchmarks: []benchResult{{Name: "K", NsPerOp: 100}}},
		{Label: "pr3-after", Benchmarks: []benchResult{{Name: "K", NsPerOp: 50}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchFile(macro, benchFile{Suite: "macro", Entries: []benchEntry{
		{Label: "pr3-after", Benchmarks: []benchResult{{Name: "e3", NsPerOp: 100}}},
	}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runTrend(&buf, options{benchJSON: kernel, macroJSON: macro,
		fabricJSON: filepath.Join(dir, "missing.json")})
	if err != nil {
		t.Fatalf("runTrend: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "sim-kernel perf trajectory") || !strings.Contains(out, "×0.500") {
		t.Errorf("missing kernel trajectory:\n%s", out)
	}
	if !strings.Contains(out, "fabric suite: no") {
		t.Errorf("missing-file note absent:\n%s", out)
	}
	if !strings.Contains(out, "cross-suite perf trajectory") {
		t.Errorf("missing cross-suite table:\n%s", out)
	}
}
