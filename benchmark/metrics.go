package main

import (
	"time"
)

// metricDef declares one reported metric. The smoke test checks these
// lists against BENCHMARK.json, which also says which way is better.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // median of the run's set-ups, main to ready
	{"wall_s", "s"},              // median operation wall time
	{"ops_per_s", "ops/s"},       // operations completed per second of load
	{"points_per_s", "points/s"}, // grid points computed or replayed per second of load
	{"alloc_mb", "MB/op"},        // heap bytes allocated per operation
	{"peak_rss_mb", "MB"},        // the measuring process's peak resident set
}

// perLayer are the per-layer metrics of a traced run, named by package. A
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"bridge.severity_s", "s"},
	{"bridge.severity_keys", "count"},
	{"systolic.matmul_us", "us"},
	{"systolic.gmacs", "GMAC/s"},
	{"systolic.allocs_per_call", "count"},
	{"quant.calibrate_us", "us"},
	{"nn.conv2d_forward_us", "us"},
	{"entropy.train_s", "s"},
	{"registry.run_s.fig5", "s"},
	{"registry.run_s.fig8", "s"},
	{"registry.run_s.fig9", "s"},
	{"registry.run_s.fig13", "s"},
	{"registry.run_s.fig16", "s"},
	{"registry.run_s.fig19", "s"},
	{"registry.render_s.fig5", "s"},
	{"registry.render_s.fig8", "s"},
	{"registry.render_s.fig9", "s"},
	{"registry.render_s.fig13", "s"},
	{"registry.render_s.fig16", "s"},
	{"registry.render_s.fig19", "s"},
	{"agent.episode_ms", "ms"},
	{"agent.step_ns", "ns"},
	{"agent.episodes", "count"},
	{"agent.steps", "count"},
	{"experiments.points_computed", "count"},
	{"experiments.points_reused", "count"},
	{"experiments.point_ms", "ms"},
	{"cache.entries", "count"},
	{"cache.disk_bytes", "B"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.export_mb_s", "MB/s"},
	{"cache.import_mb_s", "MB/s"},
	{"service.submit_p50_s", "s"},
	{"service.submit_tail_s", "s"},
	{"service.wait_p50_s", "s"},
	{"service.wait_tail_s", "s"},
	{"service.fetch_p50_s", "s"},
	{"service.fetch_tail_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.plan_s", "s"},
	{"service.compute_s", "s"},
	{"service.render_s", "s"},
	{"service.dedupe_joins", "count"},
	{"dispatch.plan_s", "s"},
	{"dispatch.dispatch_s", "s"},
	{"dispatch.worker_compute_s", "s"},
	{"dispatch.merge_s", "s"},
	{"dispatch.replay_s", "s"},
	{"dispatch.shards_dispatched", "count"},
	{"dispatch.entries_merged", "count"},
	{"dispatch.retries", "count"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runRecord is the outcome of one run of one workload.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// WallTail is the highest percentile of operation wall time with at
	// least ten samples beyond it, when the run has that many.
	WallTail *tailValue `json:"wall_tail,omitempty"`
}

type tailValue struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// endToEndMetrics computes the end-to-end metrics from the loop. A traced
// run reports them over its untraced operations only.
func endToEndMetrics(clients int, lr loopResult, setup time.Duration, rssMB float64) (map[string]metric, *tailValue) {
	var ops, all []interval
	var walls []float64
	var alloc uint64
	for _, o := range lr.ops {
		all = append(all, interval{o.start, o.end})
		if o.traced {
			continue
		}
		ops = append(ops, interval{o.start, o.end})
		walls = append(walls, o.wall())
		alloc += o.alloc
	}
	allocOps := len(walls)
	if clients > 1 {
		// Concurrent operations' allocations interleave; only the loop's
		// total divides cleanly among them.
		alloc, allocOps = lr.allocTotal, len(lr.ops)
	}
	vals := map[string]float64{
		"setup_s":      setup.Seconds(),
		"wall_s":       median(walls),
		"ops_per_s":    rate(float64(len(walls)), covered(ops)),
		"points_per_s": rate(float64(lr.hits+lr.misses), covered(all)),
		"alloc_mb":     float64(alloc) / 1e6 / float64(max(allocOps, 1)),
		"peak_rss_mb":  rssMB,
	}
	n := map[string]int{
		"setup_s": 1, "wall_s": len(walls), "ops_per_s": len(walls),
		"points_per_s": len(lr.ops), "alloc_mb": allocOps, "peak_rss_mb": 1,
	}
	var tv *tailValue
	if pct, v, ok := tail(walls); ok {
		tv = &tailValue{pct, v}
	}
	return declared(endToEnd, vals, n), tv
}

// declared gives every metric of defs its value from vals (0 when absent),
// its unit and its sample count.
func declared(defs []metricDef, vals map[string]float64, n map[string]int) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit, n[d.name]}
	}
	return out
}

// rate is n per second of d (0 when nothing was measured).
func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// layerMetrics computes the per-layer metrics of a traced run. vals
// arrives holding the run-level values (set-up, probes, end state); the
// per-operation values are folded in here.
func layerMetrics(lr loopResult, vals map[string]float64) map[string]metric {
	perOp := map[string][]float64{}  // traced operations' layer values
	counts := map[string][]float64{} // operations' counts
	n := map[string]int{}            // samples behind each value
	var tracedWalls, plainWalls, unattributed []float64
	for _, o := range lr.ops {
		for k, v := range o.counts {
			counts[k] = append(counts[k], v)
		}
		if !o.traced {
			plainWalls = append(plainWalls, o.wall())
			continue
		}
		tracedWalls = append(tracedWalls, o.wall())
		unattributed = append(unattributed, o.wall()-covered(o.spans).Seconds())
		for k, v := range o.layers {
			perOp[k] = append(perOp[k], v)
		}
	}
	for k, xs := range perOp {
		vals[k], n[k] = median(xs), len(xs)
	}
	for k, xs := range counts {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		vals[k], n[k] = sum/float64(len(xs)), len(xs)
	}
	// Client-side service spans: median and tail over the traced jobs.
	for _, stage := range []string{"submit", "wait", "fetch"} {
		xs := perOp["service."+stage+"_s"]
		if len(xs) == 0 {
			continue
		}
		p50, tl := "service."+stage+"_p50_s", "service."+stage+"_tail_s"
		vals[p50], n[p50] = median(xs), len(xs)
		if _, v, ok := tail(xs); ok {
			vals[tl], n[tl] = v, len(xs)
		}
	}
	if ops := len(lr.ops); ops > 0 {
		vals["experiments.points_computed"] = float64(lr.misses) / float64(ops)
		vals["experiments.points_reused"] = float64(lr.hits) / float64(ops)
		n["experiments.points_computed"], n["experiments.points_reused"] = ops, ops
	}
	vals["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	vals["trace.unattributed_s"] = median(unattributed)
	n["trace.overhead_s"], n["trace.unattributed_s"] = len(lr.ops), len(unattributed)

	return declared(perLayer, vals, n)
}
