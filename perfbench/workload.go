package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	_ "repro/internal/exp" // register the experiment catalogue
	"repro/internal/scenario"
)

// workload is one (spec × seed) grid and the backend it sweeps through.
// All three are closed loops in one process: the Runner submits the whole
// grid and at most GOMAXPROCS runs (Local) or one worker connection plus
// one store connection (fabric) are in flight.
type workload struct {
	name     string
	specs    []string // nil: every registered spec
	seeds    int      // size of the consecutive seed block starting at --seed
	refSeeds int      // leading seeds of the block the set-up reference sweep covers; 0: all
	fabric   bool     // Cache{Shard over loopback ServeNet, loopback ServeStore} instead of Local
}

var workloads = map[string]workload{
	// The real traffic: `figgen -seeds N` regenerating the whole survey.
	// Time goes to the metro model, math and route; e20 and e16 dominate.
	// Its set-up takes references for the first seed only: the whole grid
	// five times over would cost much of the measurement window. Eight
	// seeds average out most of e16's seed-driven allocation (a 4-seed
	// block's alloc_mb varies twice as much from block to block).
	"catalogue": {name: "catalogue", seeds: 8, refSeeds: 1},
	// Dense DCF/PSM/EC-MAC, adaptive ARQ and TCP: the event kernel and
	// allocation-heavy packet models, with no metro, route or fabric code.
	// BENCHMARK.json leaves it out: its specs and layers all run in the
	// catalogue, and two workloads leave each run a window long enough to
	// be steady. It stays runnable to attribute the kernel on its own.
	"packet-stack": {name: "packet-stack", specs: []string{"e3", "e4", "e5", "e9", "e10"}, seeds: 16},
	// The cheapest real specs, so the scenario layer (shard transport,
	// codec, store, cache) does most of the work. The first sweep of a
	// pair fills a fresh store; the second is served from it.
	"fabric": {name: "fabric", specs: []string{"fig1", "e15", "e12", "ablation-iface", "ablation-margin"},
		seeds: 200, fabric: true},
}

// validationSeeds is the fixed held-out seed block model_err_pct is
// measured on. Accuracy varies several-fold from seed to seed (e19's worst
// pair ranges 0.2–5% over seeds 1–24), so a seed-driven figure would swamp
// any bound; on fixed seeds it moves only when a model changes.
var validationSeeds = scenario.Seeds(1, 4)

// config is one benchmark invocation. The fields after log exist for the
// benchmark's own tests: a smaller grid, a fixed number of sweep pairs,
// and the injected faults the mutation checks need.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	root     string
	workDir  string // spans and scratch result stores go here
	log      io.Writer

	seeds        int    // seed-block size; 0 means the workload's
	maxPairs     int    // stop after this many sweep pairs; 0 means time-bound only
	setupRepeats int    // 0 means setupRuns
	flipGolden   bool   // flip one bit of one golden value before checking
	chaos        string // ServeNet chaos schedule for the fabric worker
	closeStore   bool   // close each store listener before its sweeps
}

// setupRuns is how many times setup is timed; setup_s is their median.
const setupRuns = 5

type metric struct {
	name  string
	unit  string
	value float64
}

type outcome struct {
	workload          string
	seeds             []int64
	machine           machineInfo
	attempted, failed int
	metrics           []metric
}

// harness is everything a sweep needs, built by setup.
type harness struct {
	cfg    config
	nproc  int
	specs  []scenario.Spec
	seeds  []int64
	oracle *oracle
	local  *scenario.Local
	fab    *fabric
	tr     *tracer
	tspecs []scenario.Spec // specs recording an execute span per run

	refRuns, refFailed int // the reference sweep's runs and failed checks
}

func newHarness(cfg config, nproc int, tr *tracer) (*harness, error) {
	h := &harness{cfg: cfg, nproc: nproc, tr: tr, local: &scenario.Local{Parallel: nproc}}
	var err error
	if h.oracle, err = loadOracle(cfg.root, cfg.flipGolden, cfg.log); err != nil {
		return nil, err
	}
	if cfg.workload.specs == nil {
		h.specs = scenario.All()
	} else {
		for _, n := range cfg.workload.specs {
			s, ok := scenario.Lookup(n)
			if !ok {
				return nil, fmt.Errorf("spec %q is not registered", n)
			}
			h.specs = append(h.specs, s)
		}
	}
	n := cfg.seeds
	if n == 0 {
		n = cfg.workload.seeds
	}
	h.seeds = scenario.Seeds(cfg.seed, n)
	if tr != nil {
		h.tspecs = tr.wrapSpecs(h.specs)
	}
	// Reference digests come from a Local sweep, which also runs every spec
	// before timing starts. Later runs of a (spec, seed) must reproduce the
	// first digest recorded for it, so the fabric (whose reference covers
	// the whole grid) must reproduce Local bit for bit.
	refSeeds := h.seeds
	if r := cfg.workload.refSeeds; r > 0 && r < len(refSeeds) {
		refSeeds = refSeeds[:r]
	}
	aggs, err := (&scenario.Runner{Parallel: nproc, KeepPerSeed: true, Executor: h.local}).Run(h.specs, refSeeds)
	if err != nil {
		return nil, fmt.Errorf("local reference sweep: %w", err)
	}
	h.refRuns = len(h.specs) * len(refSeeds)
	h.refFailed = h.oracle.check(aggs, nil)
	if cfg.workload.fabric {
		extra := h.specs
		if tr != nil {
			extra = h.tspecs
		}
		if h.fab, err = startFabric(cfg, extra); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) close() {
	if h.fab != nil {
		h.fab.close()
	}
}

// sample is one sweep's cost, read from outside the program: wall clock,
// process CPU from getrusage, and heap/GC counters from runtime/metrics.
type sample struct {
	wall, cpu          float64 // seconds
	allocBytes, allocs float64
	gcCycles           float64
	gcCPU              float64 // seconds of GC CPU, as the runtime estimates it
	runs, failed       int
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type counters struct {
	at  time.Time
	cpu float64
	rt  [4]float64
}

func readCounters() counters {
	var c counters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			c.rt[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			c.rt[i] = s[i].Value.Float64()
		}
	}
	c.at = time.Now()
	return c
}

func since(c0 counters) sample {
	c1 := readCounters()
	return sample{
		wall:       c1.at.Sub(c0.at).Seconds(),
		cpu:        c1.cpu - c0.cpu,
		allocBytes: c1.rt[0] - c0.rt[0],
		allocs:     c1.rt[1] - c0.rt[1],
		gcCycles:   c1.rt[2] - c0.rt[2],
		gcCPU:      c1.rt[3] - c0.rt[3],
	}
}

// sweep runs the whole grid once through exec and checks every output.
// The measured interval is Runner.Run alone; digests and oracle checks run
// after it. A Runner error fails every run of the sweep.
func (h *harness) sweep(exec scenario.Executor, traced, resweep bool) sample {
	runtime.GC() // start every sweep from the same heap state
	specs := h.specs
	if traced {
		specs = h.tspecs
		exec = h.tr.executor(exec)
		h.tr.beginSweep(resweep)
	}
	r := scenario.Runner{Parallel: h.nproc, KeepPerSeed: true, Executor: exec}
	c0 := readCounters()
	aggs, err := r.Run(specs, h.seeds)
	s := since(c0)
	if traced {
		h.tr.endSweep(c0.at, s.wall)
	}
	s.runs = len(specs) * len(h.seeds)
	if err != nil {
		fmt.Fprintf(h.cfg.log, "perfbench: sweep failed: %v\n", err)
		s.failed = s.runs
		return s
	}
	var dig *tracer
	if traced {
		dig = h.tr
	}
	s.failed = h.oracle.check(aggs, dig)
	return s
}

// pair is one sweep of the grid followed by a re-sweep of the same grid.
// On Local the re-sweep recomputes everything; on the fabric the first
// sweep fills a fresh store and the re-sweep is served from it.
type pair struct {
	first, second sample
	traced        bool
	fab           fabricPair
}

func (h *harness) runPair(traced bool) (pair, error) {
	p := pair{traced: traced}
	if h.fab == nil {
		p.first = h.sweep(h.local, traced, false)
		p.second = h.sweep(h.local, traced, true)
		return p, nil
	}
	var err error
	p.first, p.second, p.fab, err = h.fab.runPair(h, traced)
	return p, err
}

// bench sets the harness up setupRuns times (setup_s is the median), then
// runs sweep pairs until the window closes and reduces them to metrics.
func bench(cfg config) (outcome, error) {
	nproc := runtime.GOMAXPROCS(0)
	var tr *tracer
	if cfg.trace {
		slots := nproc
		if cfg.workload.fabric {
			slots = 1 // one worker connection executes the fabric's runs
		}
		tr = newTracer(slots)
	}
	repeats := cfg.setupRepeats
	if repeats == 0 {
		repeats = setupRuns
	}
	var setups []float64
	var h *harness
	var attempted, failed int
	for i := 0; i < repeats; i++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		var err error
		if h, err = newHarness(cfg, nproc, tr); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		attempted += h.refRuns
		failed += h.refFailed
	}
	defer h.close()

	out := outcome{workload: cfg.workload.name, seeds: h.seeds, machine: stampMachine(cfg.root),
		attempted: attempted, failed: failed}
	minPairs := 1
	if cfg.trace {
		minPairs = 2 // one untraced and one traced
	}
	// A pair starts only if it should end inside the window, judged by the
	// last pair's length, so a run overshoots its window by little.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var pairs []pair
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minPairs && (time.Now().Add(last).After(deadline) || (cfg.maxPairs > 0 && i >= cfg.maxPairs)) {
			break
		}
		t0 := time.Now()
		p, err := h.runPair(cfg.trace && i%2 == 1)
		last = time.Since(t0)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += p.first.runs + p.second.runs
		fmt.Fprintf(cfg.log, "perfbench: pair %d (traced %v): sweep %.4f s, re-sweep %.4f s\n",
			i, p.traced, p.first.wall, p.second.wall)
		out.failed += p.first.failed + p.second.failed + p.fab.failed
		pairs = append(pairs, p)
	}
	fmt.Fprintf(cfg.log, "perfbench: %s seeds %d..%d: %d sweep pairs, %d runs, %d failed\n",
		cfg.workload.name, h.seeds[0], h.seeds[len(h.seeds)-1], len(pairs), out.attempted, out.failed)

	if cfg.trace {
		var err error
		out.metrics, err = h.layerMetrics(pairs)
		return out, err
	}
	errPct, runs, failed := h.modelError()
	out.attempted += runs
	out.failed += failed
	// On Local a re-sweep is the same work as a sweep (Local memoizes
	// nothing), so both sweeps of every pair are samples of sweep_s,
	// resweep_s and cpu_s there: twice the samples under each median.
	local := h.fab == nil
	var first, second, cpu, alloc []float64
	for _, p := range pairs {
		first = append(first, p.first.wall)
		second = append(second, p.second.wall)
		cpu = append(cpu, p.first.cpu)
		alloc = append(alloc, p.first.allocBytes/1e6)
		if local {
			first = append(first, p.second.wall)
			cpu = append(cpu, p.second.cpu)
		}
	}
	if local {
		second = first
	}
	out.metrics = []metric{
		{"setup_s", "s", median(setups)},
		{"sweep_s", "s", median(first)},
		{"resweep_s", "s", median(second)},
		{"cpu_s", "s", median(cpu)},
		{"alloc_mb", "MB", median(alloc)},
		{"model_err_pct", "%", errPct},
	}
	return out, nil
}

// modelError runs every [analytic] spec on the validation seeds, checks
// the runs like any other, and returns the mean, over (spec, seed), of the
// largest relative error between a simulated aggregate and its closed
// form, in percent.
func (h *harness) modelError() (pct float64, runs, failed int) {
	var specs []scenario.Spec
	for _, s := range scenario.All() {
		if s.HasTag("analytic") {
			specs = append(specs, s)
		}
	}
	runs = len(specs) * len(validationSeeds)
	aggs, err := (&scenario.Runner{Parallel: h.nproc, KeepPerSeed: true, Executor: h.local}).Run(specs, validationSeeds)
	if err != nil || runs == 0 {
		fmt.Fprintf(h.cfg.log, "perfbench: accuracy sweep over %d runs failed: %v\n", runs, err)
		return 0, max(runs, 1), max(runs, 1)
	}
	var sum float64
	for _, a := range aggs {
		for _, res := range a.PerSeed {
			worst, _ := analyticError(res)
			sum += worst
		}
	}
	return sum / float64(runs), runs, h.oracle.check(aggs, nil)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// fabric is the loopback fleet: one in-process ServeNet worker behind one
// Shard connection. Each sweep pair adds a fresh ServeStore.
type fabric struct {
	cfg      config
	ln       net.Listener
	served   chan error
	shard    *scenario.Shard
	storeDir string
}

func startFabric(cfg config, extra []scenario.Spec) (*fabric, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "stores-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fabric{cfg: cfg, ln: ln, served: make(chan error, 1), storeDir: dir}
	go func() {
		f.served <- scenario.ServeNet(ln, scenario.NetServeOptions{ChaosSpec: cfg.chaos, Extra: extra, Log: cfg.log})
	}()
	f.shard = &scenario.Shard{Workers: 1, Addrs: []string{ln.Addr().String()}, Stderr: cfg.log}
	return f, nil
}

func (f *fabric) close() {
	f.shard.Close()
	f.ln.Close()
	if err := <-f.served; err != nil {
		fmt.Fprintf(f.cfg.log, "perfbench: worker server: %v\n", err)
	}
	os.RemoveAll(f.storeDir)
}

// fabricPair is what one cold+warm pair did inside the fabric.
type fabricPair struct {
	failed                    int
	bytesSent, bytesRecv      int64 // shard protocol bytes over the cold sweep
	retries, failures, stales int64 // shard supervision deltas over the pair
	warmHits, warmMisses      int64
	storeBytes                int64 // bytes the store sent back during the warm sweep
}

// shardOnly hides the Shard's Close from Cache.Close, so one Shard (and
// its connection) serves every pair while each pair gets a fresh store.
type shardOnly struct{ scenario.Executor }

func (f *fabric) runPair(h *harness, traced bool) (cold, warm sample, fp fabricPair, err error) {
	// Flush the previous pair's store files and deletions first, so the
	// kernel's delayed writeback of them does not land inside this pair's
	// timed sweeps.
	syscall.Sync()
	dir, err := os.MkdirTemp(f.storeDir, "pair-")
	if err != nil {
		return cold, warm, fp, err
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cold, warm, fp, err
	}
	cl := &countingListener{Listener: ln}
	served := make(chan error, 1)
	go func() { served <- scenario.ServeStore(cl, filepath.Join(dir, "store")) }()
	if f.cfg.closeStore {
		ln.Close()
	}
	cache := &scenario.Cache{Inner: shardOnly{f.shard}, Dir: filepath.Join(dir, "local"), Addr: ln.Addr().String()}

	h0 := f.shard.Health()
	cold = h.sweep(cache, traced, false)
	h1 := f.shard.Health()
	st1, out1 := cache.Stats(), cl.written.Load()
	warm = h.sweep(cache, traced, true)
	h2 := f.shard.Health()
	st2, out2 := cache.Stats(), cl.written.Load()
	cache.Close()
	ln.Close()
	if err := <-served; err != nil {
		fmt.Fprintf(f.cfg.log, "perfbench: store server: %v\n", err)
	}

	fp.bytesSent = h1.BytesSent - h0.BytesSent
	fp.bytesRecv = h1.BytesRecv - h0.BytesRecv
	fp.retries = h2.Retries - h0.Retries
	fp.failures = h2.Failures() - h0.Failures()
	fp.stales = h2.Stales() - h0.Stales()
	fp.warmHits = st2.Hits - st1.Hits
	fp.warmMisses = st2.Misses - st1.Misses
	fp.storeBytes = out2 - out1

	// The fabric's own health is part of correctness: a lease attempt that
	// failed, a warm run the store could not serve, or a store outage (the
	// Cache quietly falling back to its local dir) fails runs even when
	// every digest matches.
	fp.failed = int(fp.failures + fp.warmMisses)
	if st2.Outages > 0 {
		fmt.Fprintf(f.cfg.log, "perfbench: result store unreachable (%d outages)\n", st2.Outages)
		fp.failed = cold.runs + warm.runs - cold.failed - warm.failed
	}
	if fp.warmMisses > 0 {
		fmt.Fprintf(f.cfg.log, "perfbench: warm sweep missed %d entries\n", fp.warmMisses)
	}
	if fp.failures > 0 {
		fmt.Fprintf(f.cfg.log, "perfbench: %d shard lease attempts failed (%d retries)\n", fp.failures, fp.retries)
	}
	return cold, warm, fp, nil
}

// countingListener counts the bytes its connections write, which for the
// store server is everything it sends back to the Cache.
type countingListener struct {
	net.Listener
	written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, written: &l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}
