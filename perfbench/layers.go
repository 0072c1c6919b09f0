package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// layerSpecs are the catalogue's specs at the time the benchmark was
// defined; each gets an exp.<spec>.ms_p50 metric on every workload (0 on a
// workload whose grid does not hold it). The benchmark's tests fail when
// the registry stops matching, so a catalogue change is a benchmark change.
var layerSpecs = []string{
	"fig1", "fig2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
	"e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20",
	"ablation-burst", "ablation-iface", "ablation-margin",
}

// layerMetrics reduces a traced run to the per-layer metrics. Span and
// profile figures come from the traced sweeps; runtime counters and the
// end-to-end baseline for trace_overhead_pct come from the untraced sweeps
// interleaved with them. "Sweep" below is the first sweep of a pair (on
// the fabric, the cold one) and "re-sweep" the second.
func (h *harness) layerMetrics(pairs []pair) ([]metric, error) {
	tr := h.tr
	var plainSweep, tracedSweep []float64
	var allocsPerRun, gcCycles, gcFrac []float64
	var bytesSent, bytesRecv, storeBytes, warmHits, warmMisses float64
	var retries, failures, stales int64
	for _, p := range pairs {
		retries += p.fab.retries
		failures += p.fab.failures
		stales += p.fab.stales
		if p.traced {
			tracedSweep = append(tracedSweep, p.first.wall)
			continue
		}
		plainSweep = append(plainSweep, p.first.wall)
		allocsPerRun = append(allocsPerRun, p.first.allocs/float64(p.first.runs))
		gcCycles = append(gcCycles, p.first.gcCycles)
		if p.first.cpu > 0 {
			gcFrac = append(gcFrac, p.first.gcCPU/p.first.cpu)
		}
		bytesSent += float64(p.fab.bytesSent) / float64(p.first.runs)
		bytesRecv += float64(p.fab.bytesRecv) / float64(p.first.runs)
		storeBytes += float64(p.fab.storeBytes)
		warmHits += float64(p.fab.warmHits)
		warmMisses += float64(p.fab.warmMisses)
	}
	nPlain := float64(len(plainSweep))

	execMs := map[string][]float64{}
	var busy, tail, fold, self, deliveries, encodeUs []float64
	for _, sw := range tr.sweeps {
		selfTimes(sw.spans)
		var execs []span
		var root span
		var foldNs, selfNs, execNs time.Duration
		for _, s := range sw.spans {
			switch s.Name {
			case "sweep":
				root = s
			case "execute":
				execs = append(execs, s)
				execNs += s.End - s.Start
				execMs[s.Spec] = append(execMs[s.Spec], float64(s.End-s.Start)/1e6)
			case "emit":
				foldNs += s.End - s.Start
			case "executor":
				selfNs += s.Self
			case "digest":
				encodeUs = append(encodeUs, float64(s.End-s.Start)/1e3)
			}
		}
		if sw.resweep {
			if h.fab != nil {
				deliveries = append(deliveries, sw.deliveries...)
			}
			continue
		}
		busy = append(busy, execNs.Seconds()/(sw.wall*float64(tr.slots)))
		tail = append(tail, (root.End - saturatedUntil(execs, tr.slots, root.Start)).Seconds())
		fold = append(fold, float64(foldNs)/1e6)
		self = append(self, float64(selfNs)/1e6)
	}

	var ms []metric
	for _, name := range layerSpecs {
		ms = append(ms, metric{"exp." + name + ".ms_p50", "ms", median(execMs[name])})
	}
	for i, prefix := range []string{"cpu.", "cpu.resweep."} {
		for _, b := range cpuBuckets {
			ms = append(ms, metric{prefix + b, "share", tr.fold[i].share(b)})
		}
		ms = append(ms, metric{prefix + "samples", "count", float64(tr.fold[i].samples)})
	}
	hitFrac := 0.0
	if warmHits+warmMisses > 0 {
		hitFrac = warmHits / (warmHits + warmMisses)
	}
	perHit := 0.0
	if warmHits > 0 {
		perHit = storeBytes / warmHits
	}
	ms = append(ms,
		metric{"runtime.allocs_per_run", "count", median(allocsPerRun)},
		metric{"runtime.gc_cycles", "count", median(gcCycles)},
		metric{"runtime.gc_cpu_frac", "share", median(gcFrac)},
		metric{"scenario.pool_busy_frac", "share", median(busy)},
		metric{"scenario.tail_s", "s", median(tail)},
		metric{"scenario.fold_ms", "ms", median(fold)},
		metric{"scenario.self_ms", "ms", median(self)},
		metric{"scenario.shard.bytes_sent_per_run", "B", bytesSent / nPlain},
		metric{"scenario.shard.bytes_recv_per_run", "B", bytesRecv / nPlain},
		metric{"scenario.shard.retries", "count", float64(retries)},
		metric{"scenario.shard.failures", "count", float64(failures)},
		metric{"scenario.shard.stales", "count", float64(stales)},
		metric{"scenario.cache.hit_frac", "share", hitFrac},
		metric{"scenario.cache.emit_us_p50", "us", quantile(deliveries, 0.5)},
		metric{"scenario.cache.emit_us_p99", "us", quantile(deliveries, 0.99)},
		metric{"scenario.store.bytes_per_hit", "B", perHit},
		metric{"scenario.codec.bytes_per_result", "B", h.oracle.bytesPerResult()},
		metric{"scenario.codec.encode_us", "us", median(encodeUs)},
		metric{"trace_overhead_pct", "%", (median(tracedSweep)/median(plainSweep) - 1) * 100},
	)
	if err := tr.err(); err != nil {
		return nil, err
	}
	path := filepath.Join(h.cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", h.cfg.workload.name, h.cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		fmt.Fprintf(h.cfg.log, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(h.cfg.log, "perfbench: spans of the last traced pair in %s\n", path)
	}
	return ms, nil
}
