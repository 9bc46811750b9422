package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/bridge"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/model"
	"github.com/embodiedai/create/internal/nn"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/platforms"
	"github.com/embodiedai/create/internal/policy"
	"github.com/embodiedai/create/internal/quant"
	"github.com/embodiedai/create/internal/systolic"
	"github.com/embodiedai/create/internal/tensor"
	"github.com/embodiedai/create/internal/timing"
	"github.com/embodiedai/create/internal/world"
)

// severityKeys are the bridge severity tables the whole evaluation suite
// measures (create-bench -exp all reads exactly these): planner without
// protection, with AD and with AD+WR, controller without protection and
// with AD, all INT8.
var severityKeys = []struct {
	name    string
	measure func()
}{
	{"planner none", func() { bridge.PlannerSeverity(bridge.Protection{}) }},
	{"planner AD", func() { bridge.PlannerSeverity(bridge.Protection{AD: true}) }},
	{"planner AD+WR", func() { bridge.PlannerSeverity(bridge.Protection{AD: true, WR: true}) }},
	{"controller none", func() { bridge.ControllerSeverity(bridge.Protection{}) }},
	{"controller AD", func() { bridge.ControllerSeverity(bridge.Protection{AD: true}) }},
}

// warmSeverity measures every severity table on nproc goroutines, so no
// operation pays the process-wide cold start, and returns the wall time it
// took. With rec set, each table gets a span.
func warmSeverity(rec *trace.Recorder) time.Duration {
	start := time.Now()
	keys := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc, len(severityKeys)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				t := time.Now()
				severityKeys[i].measure()
				if rec != nil {
					rec.Record(trace.Span{
						TraceID: rec.TraceID(), SpanID: rec.NewSpanID(),
						Name: "bridge.severity " + severityKeys[i].name, Start: t, End: time.Now(),
						Attrs: map[string]string{"node": "benchmark setup"},
					})
				}
			}
		}()
	}
	for i := range severityKeys {
		keys <- i
	}
	close(keys)
	wg.Wait()
	return time.Since(start)
}

// perCall times fn in doubling batches until budget has passed and returns
// the median seconds per call over the batches.
func perCall(budget time.Duration, fn func()) float64 {
	var samples []float64
	start := time.Now()
	for n := 1; time.Since(start) < budget || len(samples) < 3; {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t)
		samples = append(samples, d.Seconds()/float64(n))
		if d < budget/20 {
			n *= 2
		}
	}
	return median(samples)
}

// steadyEpisode is the voltage-scaled TaskIron episode bench_test.go times
// as the per-trial unit every figure multiplies.
func steadyEpisode(seed int64) agent.Config {
	return agent.Config{
		Task:        world.TaskIron,
		Controller:  platforms.JARVIS1Controller.FaultModel(),
		ControlProt: bridge.Protection{AD: true},
		UniformBER:  agent.VoltageMode,
		Timing:      timing.Default(),
		VSPolicy:    policy.Default.Func(),
		VSLevels:    policy.Default.VoltageLevels(),
		StepLimit:   1200,
		Seed:        seed,
	}
}

// probeKernels times the kernels beneath the figures on fixed inputs: the
// integer GEMM and its calibration at the miniature planner's largest
// shape, the predictor's first convolution, and one controller episode.
func probeKernels(seed int64, budget time.Duration, vals map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	randMat := func(rows, cols int) *tensor.Mat {
		m := tensor.NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		return m
	}
	// The planner's MLP up-projection: a 16-token prompt through Dim x MLPDim.
	cfg := model.DefaultPlannerConfig()
	x, w := randMat(16, cfg.Dim), randMat(cfg.Dim, cfg.MLPDim)
	eng := systolic.NewEngine(seed)
	eng.MatMul(x, w, 0) // grow the scratch arena before timing
	eng.ResetStats()
	start := time.Now()
	vals["systolic.matmul_us"] = perCall(budget, func() { eng.MatMul(x, w, 0) }) * 1e6
	vals["systolic.gmacs"] = float64(eng.Stats.MACs) / time.Since(start).Seconds() / 1e9
	vals["systolic.allocs_per_call"] = testing.AllocsPerRun(100, func() { eng.MatMul(x, w, 0) })
	vals["quant.calibrate_us"] = perCall(budget, func() { quant.Calibrate(w.Data, quant.INT8) }) * 1e6

	conv := nn.NewConv2d(3, 16, 3, 3, 1, rng)
	img := nn.NewVol(3, 64, 64)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	vals["nn.conv2d_forward_us"] = perCall(budget, func() { conv.Forward(img) }) * 1e6

	runner := agent.NewRunner(steadyEpisode(seed))
	var steps int
	episode := perCall(budget, func() { steps = runner.RunSeed(seed).Steps })
	vals["agent.episode_ms"] = episode * 1e3
	if steps > 0 {
		vals["agent.step_ns"] = episode * 1e9 / float64(steps)
	}
}

// probeCache times the cache on the run's real entries: Put into a fresh
// disk store, Get through another fresh Store over the same directory (a
// disk read and decode each), and an export/import of the whole directory.
func probeCache(dir string, entries []cacheEntry, vals map[string]float64) error {
	if len(entries) == 0 {
		return nil
	}
	src := filepath.Join(dir, "probe-src")
	put, err := cache.New(src)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for _, e := range entries {
		t := time.Now()
		if err := put.Put(e.point, e.summary); err != nil {
			return err
		}
		puts = append(puts, time.Since(t).Seconds())
	}
	get, err := cache.New(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		t := time.Now()
		if _, ok := get.Get(e.point); !ok {
			return fmt.Errorf("cache probe: entry %s missing after Put", e.point.Key()[:12])
		}
		gets = append(gets, time.Since(t).Seconds())
	}
	vals["cache.put_us"] = median(puts) * 1e6
	vals["cache.get_us"] = median(gets) * 1e6

	var stream bytes.Buffer
	t := time.Now()
	if _, err := put.ExportTo(&stream, nil); err != nil {
		return err
	}
	vals["cache.export_mb_s"] = float64(stream.Len()) / 1e6 / time.Since(t).Seconds()
	dst, err := cache.New(filepath.Join(dir, "probe-dst"))
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := dst.ImportFrom(bytes.NewReader(stream.Bytes())); err != nil {
		return err
	}
	vals["cache.import_mb_s"] = float64(stream.Len()) / 1e6 / time.Since(t).Seconds()
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// Maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
