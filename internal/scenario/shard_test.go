package scenario

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestServeWorkerProtocol drives the worker loop over in-memory pipes —
// no subprocess — checking the hello handshake, chunk-request framing
// with per-seed streamed responses, extra-spec precedence, unknown names
// and panic conversion. It runs clean and under network chaos verbs, which
// a stdio session must ignore: the stream has to come out identical.
func TestServeWorkerProtocol(t *testing.T) {
	for _, chaos := range []string{"", "drop-conn-after=1,blackhole-after=1,replay-after=1", "replay-after=2"} {
		t.Run("chaos="+chaos, func(t *testing.T) {
			t.Setenv(chaosEnv, chaos)
			testServeWorkerProtocol(t)
		})
	}
}

func testServeWorkerProtocol(t *testing.T) {
	extra := Spec{
		Name: "test-extra", Desc: "extra",
		Run: func(seed int64) Result {
			if seed == 99 {
				panic("boom")
			}
			return Result{Name: "extra", Table: "x", Values: map[string]float64{"v": float64(seed) * 2}}
		},
	}
	var in, out bytes.Buffer
	var fs frameScratch
	in.Write(fs.requestFrame("test-extra", []int64{4, 6}, 41)) // one chunk, two seeds
	in.Write(fs.requestFrame("test-shardable", []int64{13}, 42))
	in.Write(fs.requestFrame("test-no-such-spec", []int64{1}, 43))
	in.Write(fs.requestFrame("test-extra", []int64{99}, 44))
	if err := ServeWorker(&in, &out, extra); err != nil {
		t.Fatal(err)
	}

	var buf []byte
	read := func() wireMsg {
		t.Helper()
		p, err := readRawFrame(&out, &buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseWireMsg(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := read(); m.ftype != frameHello || m.version != protoVersion {
		t.Fatalf("first frame = %+v, want hello v%d", m, protoVersion)
	}
	readResult := func(spec string, seed, epoch int64) Result {
		t.Helper()
		m := read()
		if m.ftype != frameResult || string(m.spec) != spec || m.seed != seed || m.epoch != epoch {
			t.Fatalf("frame = %+v, want result for %s seed %d epoch %d", m, spec, seed, epoch)
		}
		res, err := DecodeResult(m.result)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := readResult("test-extra", 4, 41); res.Values["v"] != 8 {
		t.Errorf("extra spec seed 4: %+v", res)
	}
	if res := readResult("test-extra", 6, 41); res.Values["v"] != 12 {
		t.Errorf("extra spec seed 6 (same chunk): %+v", res)
	}
	if res := readResult("test-shardable", 13, 42); !math.IsNaN(res.Values["nan"]) {
		t.Errorf("registry spec seed 13: %+v", res)
	}
	if m := read(); m.ftype != frameError || !strings.Contains(string(m.errMsg), "test-no-such-spec") {
		t.Errorf("unknown spec frame = %+v", m)
	}
	if m := read(); m.ftype != frameError || !strings.Contains(string(m.errMsg), "boom") {
		t.Errorf("panic not converted to error frame: %+v", m)
	}
	if _, err := readRawFrame(&out, &buf); err != io.EOF {
		t.Errorf("worker wrote extra frames: %v", err)
	}
}

// shardForTest returns a Shard whose workers are this test binary serving
// ServeWorker (see TestMain), with restart pacing tightened so failure
// tests spend milliseconds, not the production backoff, between retries.
func shardForTest(workers int) *Shard {
	return &Shard{
		Workers: workers,
		Argv:    []string{os.Args[0], workerSentinel},
		Policy:  fastPolicy(),
	}
}

// fastPolicy is the production default with test-speed restart pacing.
func fastPolicy() FaultPolicy {
	p := DefaultFaultPolicy()
	p.ChunkTimeout = 30 * time.Second
	p.RestartBackoff = time.Millisecond
	p.MaxBackoff = 5 * time.Millisecond
	return p
}

// metricsEqualBits compares metric slices demanding bit-identical floats;
// reflect.DeepEqual would reject identical NaNs.
func metricsEqualBits(a, b []Metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].N != b[i].N ||
			math.Float64bits(a[i].Mean) != math.Float64bits(b[i].Mean) ||
			math.Float64bits(a[i].CI95) != math.Float64bits(b[i].CI95) ||
			math.Float64bits(a[i].Min) != math.Float64bits(b[i].Min) ||
			math.Float64bits(a[i].Max) != math.Float64bits(b[i].Max) {
			return false
		}
	}
	return true
}

// TestShardMatchesLocal is the scenario-level equivalence check on a
// registered synthetic spec: the subprocess backend must reproduce the
// Local backend bit-for-bit, per seed and in aggregate, including the
// NaN/Inf seeds the codec exists for.
func TestShardMatchesLocal(t *testing.T) {
	spec, ok := Lookup("test-shardable")
	if !ok {
		t.Fatal("test-shardable not registered")
	}
	seeds := Seeds(10, 8) // includes 13, the NaN seed

	local := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)
	sh := shardForTest(2)
	defer sh.Close()
	sharded := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, []Spec{spec}, seeds)

	a, b := local[0], sharded[0]
	if !metricsEqualBits(a.Metrics, b.Metrics) {
		t.Errorf("metrics diverged:\nlocal %+v\nshard %+v", a.Metrics, b.Metrics)
	}
	for i := range a.PerSeed {
		pa, pb := a.PerSeed[i], b.PerSeed[i]
		if pa.Name != pb.Name || pa.Table != pb.Table {
			t.Errorf("seed %d: name/table diverged", seeds[i])
		}
		if len(pa.Values) != len(pb.Values) {
			t.Fatalf("seed %d: value sets differ", seeds[i])
		}
		for k := range pa.Values {
			if math.Float64bits(pa.Values[k]) != math.Float64bits(pb.Values[k]) {
				t.Errorf("seed %d %s: %#x vs %#x", seeds[i], k,
					math.Float64bits(pa.Values[k]), math.Float64bits(pb.Values[k]))
			}
		}
	}
	if a.Table() != b.Table() {
		t.Error("rendered aggregate tables not byte-identical")
	}
}

// TestShardPoolSharedAcrossSpecs runs several specs concurrently through
// one 2-worker Shard (the Runner fans specs out) — exercising the shared
// job channel under contention.
func TestShardPoolSharedAcrossSpecs(t *testing.T) {
	spec, _ := Lookup("test-shardable")
	// The same registered spec under several concurrent Run calls.
	specs := []Spec{spec, spec, spec}
	sh := shardForTest(2)
	defer sh.Close()
	aggs := mustRun(t, &Runner{Executor: sh}, specs, Seeds(1, 6))
	for i, a := range aggs {
		if len(a.Metrics) == 0 || a.Metrics[len(a.Metrics)-1].N != 6 {
			t.Errorf("spec %d aggregate incomplete: %+v", i, a.Metrics)
		}
	}
}

func TestShardUnknownSpecFails(t *testing.T) {
	sh := shardForTest(1)
	defer sh.Close()
	spec := Spec{Name: "test-not-registered-anywhere", Desc: "x",
		Run: func(int64) Result { return Result{} }}
	_, err := (&Runner{Executor: sh}).Run([]Spec{spec}, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "test-not-registered-anywhere") {
		t.Errorf("unknown spec in worker should fail loudly, got %v", err)
	}
}

// noDegradePolicy exhausts quickly and forbids the in-process fallback, so
// unrecoverable-fleet tests assert the error path rather than the (default)
// graceful degradation.
func noDegradePolicy() FaultPolicy {
	p := fastPolicy()
	p.MaxRetries = 1
	p.DegradeToLocal = false
	return p
}

func TestShardWorkerDeathFailsWithoutDegrade(t *testing.T) {
	sh := &Shard{Workers: 2, Argv: []string{os.Args[0], workerExitSentinel}, Policy: noDegradePolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	_, err := (&Runner{Executor: sh}).Run([]Spec{spec}, Seeds(1, 4))
	if err == nil {
		t.Fatal("dead workers with degradation disabled should fail the run")
	}
	if !strings.Contains(err.Error(), "degrade-to-local disabled") {
		t.Errorf("error should name the exhausted path, got %v", err)
	}
}

// TestShardWorkerDeathDegradesToLocal is the graceful-degradation
// guarantee: a fleet whose every process dies instantly still completes
// the run bit-identically via quarantined in-process execution.
func TestShardWorkerDeathDegradesToLocal(t *testing.T) {
	sh := &Shard{Workers: 2, Argv: []string{os.Args[0], workerExitSentinel}, Policy: fastPolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	seeds := Seeds(10, 6) // includes 13, the NaN seed

	local := mustRun(t, &Runner{Parallel: 4, KeepPerSeed: true}, []Spec{spec}, seeds)
	degraded := mustRun(t, &Runner{KeepPerSeed: true, Executor: sh}, []Spec{spec}, seeds)
	if !metricsEqualBits(local[0].Metrics, degraded[0].Metrics) {
		t.Errorf("degraded metrics diverged:\nlocal %+v\ndegraded %+v", local[0].Metrics, degraded[0].Metrics)
	}

	h := sh.Health()
	if h.DegradedSeeds != int64(len(seeds)) {
		t.Errorf("DegradedSeeds = %d, want %d (every seed quarantined)", h.DegradedSeeds, len(seeds))
	}
	if h.Quarantined == 0 || h.Retries == 0 || h.Failures() == 0 {
		t.Errorf("health should record the failure storm: %s", h)
	}
}

func TestShardBadBinaryFailsWithoutDegrade(t *testing.T) {
	sh := &Shard{Workers: 1, Argv: []string{"/no/such/binary/exists"}, Policy: noDegradePolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	if _, err := (&Runner{Executor: sh}).Run([]Spec{spec}, []int64{1}); err == nil {
		t.Fatal("unstartable worker binary with degradation disabled should fail the run")
	}
}

func TestShardBadBinaryDegradesToLocal(t *testing.T) {
	sh := &Shard{Workers: 1, Argv: []string{"/no/such/binary/exists"}, Policy: fastPolicy()}
	defer sh.Close()
	spec, _ := Lookup("test-shardable")
	aggs := mustRun(t, &Runner{Executor: sh}, []Spec{spec}, Seeds(1, 3))
	if len(aggs) != 1 || aggs[0].Metrics[len(aggs[0].Metrics)-1].N != 3 {
		t.Errorf("degraded run incomplete: %+v", aggs)
	}
	if h := sh.Health(); h.DegradedSeeds != 3 {
		t.Errorf("DegradedSeeds = %d, want 3", h.DegradedSeeds)
	}
}
