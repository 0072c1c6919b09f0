package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call: the sweep (root, around Runner.Run), an
// executor (around Executor.Run of one spec), an execute (around
// Spec.Execute of one seed), an emit (around the Runner's fold of one
// result) and a digest (around EncodeResult of one result). Every span of
// one sweep carries that sweep's number.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Sweep  int           `json:"sweep"`
	Name   string        `json:"name"`
	Spec   string        `json:"spec,omitempty"`
	Seed   int64         `json:"seed,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// sweepTrace is everything recorded during one traced sweep.
type sweepTrace struct {
	n          int
	resweep    bool
	wall       float64
	spans      []span
	deliveries []float64 // µs between successive emits of one executor
}

// tracer keeps spans in memory and hands out the wrappers that record
// them. Untraced sweeps of a traced run go through the same wrapped specs
// with recording switched off.
type tracer struct {
	slots int // runs that can execute at once
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu      sync.Mutex
	cur     *sweepTrace
	root    int64
	parents map[string]int64 // spec name → executor span of the current sweep
	sweeps  []*sweepTrace

	prof    bytes.Buffer
	profErr error
	fold    [2]cpuFold // sweeps, re-sweeps
}

func newTracer(slots int) *tracer {
	return &tracer{slots: slots, t0: time.Now()}
}

// now is the tracer clock; a nil tracer reads 0 so callers need no branch.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.Sweep = t.cur.n
	t.cur.spans = append(t.cur.spans, s)
	t.mu.Unlock()
}

// beginSweep opens a sweep and starts the CPU profile that covers it.
func (t *tracer) beginSweep(resweep bool) {
	t.mu.Lock()
	t.cur = &sweepTrace{n: len(t.sweeps) + 1, resweep: resweep}
	t.sweeps = append(t.sweeps, t.cur)
	t.root = t.ids.Add(1)
	t.parents = map[string]int64{}
	t.mu.Unlock()
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil && t.profErr == nil {
		t.profErr = err
	}
	t.on.Store(true)
}

// endSweep closes the root span, stops the profile and folds its samples.
func (t *tracer) endSweep(start time.Time, wall float64) {
	t.on.Store(false)
	pprof.StopCPUProfile()
	role := 0
	if t.cur.resweep {
		role = 1
	}
	if err := t.fold[role].add(t.prof.Bytes()); err != nil && t.profErr == nil {
		t.profErr = err
	}
	s := start.Sub(t.t0)
	t.add(span{ID: t.root, Name: "sweep", Start: s, End: s + time.Duration(wall*float64(time.Second))})
	t.cur.wall = wall
}

func (t *tracer) digest(spec string, seed int64, start time.Duration) {
	t.add(span{ID: t.ids.Add(1), Parent: t.root, Name: "digest", Spec: spec, Seed: seed, Start: start, End: t.now()})
}

// wrapSpecs returns copies of specs whose Run records an execute span
// around the original Spec.Execute (which still applies the spec's kernel
// tuning). Names and Params are unchanged, so cache keys and worker
// lookups see the same specs.
func (t *tracer) wrapSpecs(specs []scenario.Spec) []scenario.Spec {
	out := make([]scenario.Spec, len(specs))
	for i, orig := range specs {
		w := orig
		w.RunTuned, w.Tuning = nil, nil
		w.Run = func(seed int64) scenario.Result {
			if !t.on.Load() {
				return orig.Execute(seed)
			}
			start := t.now()
			res := orig.Execute(seed)
			end := t.now()
			t.mu.Lock()
			parent := t.parents[orig.Name]
			t.mu.Unlock()
			t.add(span{ID: t.ids.Add(1), Parent: parent, Name: "execute", Spec: orig.Name, Seed: seed,
				Start: start, End: end})
			return res
		}
		out[i] = w
	}
	return out
}

func (t *tracer) executor(inner scenario.Executor) scenario.Executor {
	return &tracedExec{inner: inner, t: t}
}

// tracedExec records an executor span around each Executor.Run, an emit
// span around each call into the Runner's fold, and the gap the Runner
// waited between successive results.
type tracedExec struct {
	inner scenario.Executor
	t     *tracer
}

func (e *tracedExec) Run(spec scenario.Spec, seeds []int64, emit scenario.Emit) error {
	t := e.t
	id := t.ids.Add(1)
	t.mu.Lock()
	t.parents[spec.Name] = id
	root := t.root
	t.mu.Unlock()
	start := t.now()
	last := start // emits of one Run are sequential, so no lock
	err := e.inner.Run(spec, seeds, func(ki int, res scenario.Result) {
		t0 := t.now()
		emit(ki, res)
		t1 := t.now()
		t.mu.Lock()
		t.cur.deliveries = append(t.cur.deliveries, float64(t0-last)/1e3)
		t.mu.Unlock()
		t.add(span{ID: t.ids.Add(1), Parent: id, Name: "emit", Spec: spec.Name, Seed: seeds[ki], Start: t0, End: t1})
		last = t1
	})
	t.add(span{ID: id, Parent: root, Name: "executor", Spec: spec.Name, Start: start, End: t.now()})
	return err
}

// selfTimes sets each span's self time: its duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans of the last traced sweep pair as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	from := max(len(t.sweeps)-2, 0)
	for _, sw := range t.sweeps[from:] {
		for _, s := range sw.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saturatedUntil returns the last instant at which at least slots execute
// spans were in flight, or start if that never happened.
func saturatedUntil(execs []span, slots int, start time.Duration) time.Duration {
	type edge struct {
		at time.Duration
		d  int
	}
	edges := make([]edge, 0, 2*len(execs))
	for _, s := range execs {
		edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].d < edges[j].d
	})
	last, n := start, 0
	for _, e := range edges {
		if n >= slots && e.d < 0 {
			last = e.at
		}
		n += e.d
	}
	return last
}

func (t *tracer) err() error {
	if t.profErr != nil {
		return fmt.Errorf("cpu profile: %w", t.profErr)
	}
	return nil
}
