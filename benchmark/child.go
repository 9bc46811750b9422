package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/embodiedai/create/internal/obs/trace"
)

// workloads lists the traffic mixes in the order `all` runs them; why each
// exists is in README.md and BENCHMARK.json.
var workloads = []struct {
	name  string
	build func(runConfig) workload
}{
	{"sweep-cold", newSweepCold},
	{"replay-warm", newReplayWarm},
	{"model-kernels", newModelKernels},
	{"serve-mixed", newServeMixed},
	{"fleet-sharded", newFleetSharded},
}

func newWorkload(cfg runConfig) (workload, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.build(cfg), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// probeBudget is how long each kernel probe of a traced run times its call.
const probeBudget = 150 * time.Millisecond

// childRecord is what one process of a run reports: its run record plus
// what the parent needs to combine several processes.
type childRecord struct {
	runRecord
	Walls   []float64         `json:"walls,omitempty"`   // untraced operations' wall times
	Outputs map[string]string `json:"outputs,omitempty"` // part key -> SHA-256 of its bytes
}

// runInProcess runs one workload in this process: set-up, the measured
// loop, the output checks and, in a traced run, the probes and the trace
// file. start is when the process entered main, so setup_s covers
// everything up to the first operation.
func runInProcess(cfg runConfig, start time.Time, traceFile string) (childRecord, error) {
	rr := childRecord{runRecord: runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}}
	var rec *trace.Recorder
	if cfg.traced {
		rec = trace.NewRecorder(trace.DeriveTraceID("benchmark|"+cfg.workload, int(cfg.seed)), "benchmark")
		rec.SetMaxSpans(1 << 20)
	}
	severity := warmSeverity(rec)
	w, err := newWorkload(cfg)
	if err != nil {
		return rr, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return rr, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	setup := time.Since(start)

	g, err := loadGolden()
	if err != nil {
		return rr, err
	}
	chk := &checker{golden: g, first: map[part]string{}}
	lr := measure(w, cfg, rec, chk)
	rss, err := peakRSSMB()
	if err != nil {
		return rr, err
	}
	rr.Attempted, rr.Failed, rr.Errors = len(lr.ops), lr.failed, lr.firstErrs
	if err := replayCheck(w, chk); err != nil {
		rr.Failed++
		rr.Errors = append(rr.Errors, err.Error())
	}
	rr.Correct = rr.Failed == 0
	rr.EndToEnd, rr.WallTail = endToEndMetrics(w.clients(), lr, setup, rss)
	rr.Outputs = chk.hashes()
	for _, o := range lr.ops {
		if !o.traced {
			rr.Walls = append(rr.Walls, o.wall())
		}
	}
	if !cfg.traced {
		return rr, nil
	}

	st, err := w.end(len(lr.ops))
	if err != nil {
		return rr, err
	}
	diskBytes, err := dirBytes(st.cacheDirs)
	if err != nil {
		return rr, err
	}
	vals := map[string]float64{
		"bridge.severity_s":    severity.Seconds(),
		"bridge.severity_keys": float64(len(severityKeys)),
		"agent.episodes":       st.episodes,
		"agent.steps":          st.steps,
		"cache.entries":        float64(st.cacheEntries),
		"cache.disk_bytes":     float64(diskBytes),
	}
	probeKernels(cfg.seed, probeBudget, vals)
	if err := probeCache(cfg.workDir, st.entries, vals); err != nil {
		return rr, err
	}
	rr.PerLayer = layerMetrics(lr, vals)
	if traceFile != "" {
		if err := writeTrace(traceFile, rec); err != nil {
			return rr, err
		}
	}
	return rr, nil
}

// writeTrace writes the run's spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open.
func writeTrace(path string, rec *trace.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec.Spans()); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
