package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestReorderedMergeBitIdentical is the property test behind the
// cross-backend determinism claim: folding shard partials in seed order
// must equal sequential accumulation bit-for-bit, for any partition of the
// seeds across shards and any interleaving of their completions. The
// reorder component is what every backend funnels completions through, so
// this pins the merge path itself, not one backend's scheduling.
func TestReorderedMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		values := make([]float64, n)
		for i := range values {
			// Mixed magnitudes make float addition order-sensitive, so an
			// ordering bug cannot hide behind benign inputs.
			values[i] = (rng.Float64() - 0.5) * math.Exp(rng.Float64()*40-20)
		}

		// Sequential baseline: one Summary fed in seed order.
		var seq stats.Summary
		for _, v := range values {
			seq.Add(v)
		}

		// Partition the seeds across a random number of shards, then let the
		// shards complete in a random global interleaving (each shard's own
		// results stay in its local order, like a real worker's stream).
		shards := 1 + rng.Intn(5)
		parts := make([][]int, shards)
		for i := 0; i < n; i++ {
			s := rng.Intn(shards)
			parts[s] = append(parts[s], i)
		}
		var merged stats.Summary
		ord := newReorder(func(ki int, r Result) { merged.Add(r.Values["x"]) })
		cursors := make([]int, shards)
		for delivered := 0; delivered < n; {
			s := rng.Intn(shards)
			if cursors[s] >= len(parts[s]) {
				continue
			}
			i := parts[s][cursors[s]]
			cursors[s]++
			delivered++
			ord.deliver(i, Result{Values: map[string]float64{"x": values[i]}})
		}

		for name, pair := range map[string][2]float64{
			"mean": {seq.Mean(), merged.Mean()},
			"ci95": {seq.CI95(), merged.CI95()},
			"min":  {seq.Min(), merged.Min()},
			"max":  {seq.Max(), merged.Max()},
			"var":  {seq.Variance(), merged.Variance()},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("trial %d (%d seeds, %d shards): %s diverged: %v (bits %#x) vs %v (bits %#x)",
					trial, n, shards, name, pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
			}
		}
		if seq.N() != merged.N() {
			t.Fatalf("trial %d: N %d vs %d", trial, seq.N(), merged.N())
		}
	}
}

// TestLocalEmitsInSeedOrder hammers the Local executor with a spec whose
// per-seed runtime is adversarial (later seeds finish first) and checks
// the emit sequence is exactly seed order.
func TestLocalEmitsInSeedOrder(t *testing.T) {
	var mu sync.Mutex
	started := make(chan struct{})
	spec := Spec{
		Name: "test-order", Desc: "ordering",
		Run: func(seed int64) Result {
			if seed == 1 {
				<-started // seed 1 cannot finish until every other seed has
			}
			return Result{Values: map[string]float64{"seed": float64(seed)}}
		},
	}
	seeds := Seeds(1, 16)
	var got []int
	l := &Local{Parallel: 8}
	done := make(chan error, 1)
	go func() {
		done <- l.Run(spec, seeds, func(ki int, res Result) {
			mu.Lock()
			got = append(got, ki)
			mu.Unlock()
		})
	}()
	close(started)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seeds) {
		t.Fatalf("emitted %d results, want %d", len(got), len(seeds))
	}
	for i, ki := range got {
		if ki != i {
			t.Fatalf("emit order %v not seed order", got)
		}
	}
}

// TestLocalSharedPoolAcrossRuns checks the capacity contract: concurrent
// Run calls on one Local never exceed Parallel simulations in flight.
func TestLocalSharedPoolAcrossRuns(t *testing.T) {
	var inFlight, peak, mu = 0, 0, sync.Mutex{}
	spec := func(name string) Spec {
		return Spec{Name: name, Desc: name, Run: func(seed int64) Result {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			x := 0.0
			for i := 0; i < 2000; i++ {
				x += math.Sqrt(float64(i))
			}
			mu.Lock()
			inFlight--
			mu.Unlock()
			return Result{Values: map[string]float64{"x": x}}
		}}
	}
	l := &Local{Parallel: 3}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Run(spec(fmt.Sprintf("s%d", i)), Seeds(1, 10), func(int, Result) {})
		}(i)
	}
	wg.Wait()
	if peak > 3 {
		t.Errorf("peak in-flight %d exceeds Parallel=3", peak)
	}
	if peak == 0 {
		t.Error("nothing ran")
	}
}

// TestExecuteAppliesTuning checks the Spec.Execute contract: RunTuned
// receives the spec's tuning override, or the default when none is set.
func TestExecuteAppliesTuning(t *testing.T) {
	var got sim.Tuning
	spec := Spec{Name: "test-tuned", Desc: "tuned"}
	spec.RunTuned = func(seed int64, tun sim.Tuning) Result {
		got = tun
		return Result{Values: map[string]float64{"seed": float64(seed)}}
	}
	spec.Execute(1)
	if got != sim.DefaultTuning() {
		t.Errorf("nil Tuning: RunTuned got %+v, want default", got)
	}
	override := sim.Tuning{TickShift: 0, WheelBits: 10, CompactMinDead: 64, WheelMinPending: 1 << 20}
	spec.Tuning = &override
	res := spec.Execute(7)
	if got != override {
		t.Errorf("RunTuned got %+v, want override %+v", got, override)
	}
	if res.Values["seed"] != 7 {
		t.Errorf("seed not threaded: %v", res.Values)
	}
}
