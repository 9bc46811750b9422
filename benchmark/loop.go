package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/embodiedai/create/internal/agent"
	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/registry"
)

// nproc bounds every load the benchmark generates: sweep workers, service
// workers, clients and connections all stay within the machine's cores.
var nproc = runtime.NumCPU()

// scale sizes a workload's inputs.
type scale struct {
	sweepTrials  int                        // sweep-cold, replay-warm, fleet-sharded
	kernelTrials int                        // model-kernels figures
	predictor    experiments.PredictorScale // model-kernels Fig. 14 predictor
	warmTrials   int                        // serve-mixed specs served from the pre-filled cache
	coldTrials   int                        // serve-mixed specs computed on demand
}

// benchScale is what the benchmark measures; smokeScale is the tiny version
// the tests run.
var (
	benchScale = scale{4, 2, experiments.PredictorScale{TrainFrames: 1000, TestFrames: 100, Epochs: 2}, 8, 2}
	smokeScale = scale{1, 1, experiments.PredictorScale{TrainFrames: 100, TestFrames: 20, Epochs: 1}, 1, 1}
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	// minOps and maxOps bound the operation count around the time budget
	// (maxOps 0 = no cap).
	minOps, maxOps int
	// workDir is scratch space for caches and staging directories.
	workDir string
}

// workload is one traffic mix. A run calls setup once (timed as setup_s),
// then op in a closed loop from clients() goroutines, then end and close.
type workload interface {
	setup() error
	// parts lists the outputs an operation emits at the run's seed that a
	// reference can pin (golden.json).
	parts() []part
	clients() int
	op(o *opCtx) error
	// cacheStats reports cumulative cache hits and misses over every store
	// the workload has used, so a delta spans operations and stores.
	cacheStats() (hits, misses int64)
	// replayStore is the store an off-the-clock replay renders from: the
	// cache the last operation read or filled.
	replayStore() (*cache.Store, error)
	// end reports end-of-run state for ops completed operations.
	end(ops int) (endState, error)
	close()
}

// endState is what a workload reports once its loop has finished.
type endState struct {
	entries         []cacheEntry // real entries of the run, for the cache probes
	episodes, steps float64      // agent work per operation
	cacheEntries    int          // distinct points held by the last operation's stores
	cacheDirs       []string     // disk stores to weigh for cache.disk_bytes
}

// cacheEntry is one grid point and its cached summary.
type cacheEntry struct {
	point   cache.Point
	summary agent.Summary
}

// part is one rendered output of an operation: registry figures rendered in
// order by dispatch.Render at a scale, or (figs empty) the Fig. 14
// predictor's result at a predictor scale.
type part struct {
	figs      string // comma-separated registry names
	trials    int
	seed      int64
	predictor experiments.PredictorScale
}

func (p part) key() string {
	if p.figs == "" {
		s := p.predictor
		return fmt.Sprintf("predictor@%dx%dx%d/%d", s.TrainFrames, s.TestFrames, s.Epochs, p.seed)
	}
	return fmt.Sprintf("%s@%d/%d", p.figs, p.trials, p.seed)
}

// render produces the part's reference bytes: the figures through
// dispatch.Render over store (the loop create-bench prints through), or the
// predictor result.
func (p part) render(store *cache.Store) ([]byte, error) {
	if p.figs == "" {
		return renderPredictor(experiments.Fig14Predictor(experiments.Options{Seed: p.seed}, p.predictor)), nil
	}
	sel, err := selection(p.figs)
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnv()
	env.Cache = store
	var buf bytes.Buffer
	dispatch.Render(&buf, env, sel, experiments.Options{Trials: p.trials, Seed: p.seed, Workers: nproc}, false)
	return buf.Bytes(), nil
}

func renderPredictor(r experiments.PredictorResult) []byte {
	return []byte(fmt.Sprintf("%+v\n", r))
}

// selection resolves comma-separated registry names.
func selection(figs string) ([]registry.Descriptor, error) {
	var sel []registry.Descriptor
	for _, name := range splitList(figs) {
		d, ok := registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		sel = append(sel, d)
	}
	return sel, nil
}

// collectEntries reads the cached summaries of every grid point the parts'
// figures consult from store, skipping points it does not hold (dynamic
// grids enumerate a superset). Off the clock: the Gets count as hits.
func collectEntries(store *cache.Store, parts []part) ([]cacheEntry, error) {
	env := experiments.NewEnv()
	seen := map[string]bool{}
	var out []cacheEntry
	for _, p := range parts {
		sel, err := selection(p.figs)
		if err != nil {
			return nil, err
		}
		opt := experiments.Options{Trials: p.trials, Seed: p.seed}
		for _, d := range sel {
			if d.Points == nil {
				continue
			}
			for _, pt := range d.Points(env, opt) {
				key := pt.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if s, ok := store.Get(pt); ok {
					out = append(out, cacheEntry{pt, s})
				}
			}
		}
	}
	return out, nil
}

// work sums the agent work behind entries: episodes run and controller
// steps taken.
func work(entries []cacheEntry) (episodes, steps float64) {
	for _, e := range entries {
		episodes += float64(e.summary.Trials)
		for _, n := range e.summary.StepsAtMV {
			steps += float64(n)
		}
	}
	return episodes, steps
}

// ---------------------------------------------------------------------------
// One operation.

// opCtx records one operation: its measured interval, its outputs, and —
// when traced — its layer spans.
type opCtx struct {
	traced bool
	client int
	rec    *trace.Recorder // the run's recorder; nil when the run is untraced
	spanID string          // this operation's span, parent of its layer spans

	start, end time.Time
	alloc      uint64 // heap bytes allocated in [start, end]
	outputs    []output
	// layers holds per-layer values this operation measured (traced ops
	// only); counts holds per-operation counts (every op).
	layers map[string]float64
	counts map[string]float64
	spans  []interval // layer spans, for attribution of the op's wall time
}

type output struct {
	part part
	data []byte
}

func (o *opCtx) begin() {
	o.alloc = heapAllocs()
	o.start = time.Now()
}

func (o *opCtx) finish() {
	o.end = time.Now()
	o.alloc = heapAllocs() - o.alloc
}

func (o *opCtx) wall() float64 { return o.end.Sub(o.start).Seconds() }

// span runs fn; in a traced operation it records a span named name under
// the operation and adds its duration to layers[name].
func (o *opCtx) span(name string, fn func()) {
	if !o.traced {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	o.rec.Record(trace.Span{
		TraceID: o.rec.TraceID(), SpanID: o.rec.NewSpanID(), ParentID: o.spanID,
		Name: name, Start: start, End: end, Attrs: map[string]string{"node": o.node()},
	})
	o.spans = append(o.spans, interval{start, end})
	o.layers[name] += end.Sub(start).Seconds()
}

func (o *opCtx) node() string { return fmt.Sprintf("benchmark client %d", o.client+1) }

func (o *opCtx) emit(p part, data []byte) { o.outputs = append(o.outputs, output{p, data}) }

// heapAllocs is the cumulative count of heap bytes allocated by the process
// (runtime.MemStats.TotalAlloc, read without stopping the world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ---------------------------------------------------------------------------
// Output checking.

//go:embed golden.json
var goldenJSON []byte

// golden maps part keys at seed 2026 to the SHA-256 of the bytes create-bench
// prints for them (see README.md for how it is regenerated).
type golden map[string]string

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	return g, nil
}

// checker compares every output against golden.json when it has the part,
// and against the first output of the same part otherwise.
type checker struct {
	mu     sync.Mutex
	golden golden
	first  map[part]string // hash of each part's first output
}

func hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (c *checker) check(p part, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := hash(data)
	if _, ok := c.first[p]; !ok {
		c.first[p] = got
	}
	want, ok := c.golden[p.key()]
	if !ok {
		want = c.first[p]
	}
	if got != want {
		return fmt.Errorf("%s: output sha256 %s, want %s", p.key(), got[:12], want[:12])
	}
	return nil
}

// unpinned lists the parts no golden entry covers: those are replayed off
// the clock once the loop ends.
func (c *checker) unpinned() []part {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []part
	for p := range c.first {
		if _, pinned := c.golden[p.key()]; !pinned {
			out = append(out, p)
		}
	}
	return out
}

// hashes maps every part key checked to the hash of its first output, so
// the parent can compare the processes of a run with each other.
func (c *checker) hashes() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.first))
	for p, h := range c.first {
		out[p.key()] = h
	}
	return out
}

// ---------------------------------------------------------------------------
// The closed loop.

// loopResult is everything the measured loop observed.
type loopResult struct {
	ops          []*opCtx
	failed       int
	hits, misses int64  // cache lookups during the loop
	allocTotal   uint64 // heap bytes allocated over the whole loop
	firstErrs    []string
}

// measure runs w's operations in a closed loop from w.clients() goroutines:
// a client starts its next operation only when the previous one finished.
// Clients stop once the operations' wall time reaches cfg.seconds per
// client and at least cfg.minOps ran. In a traced run every client
// alternates untraced and traced operations, so the two halves see the
// same conditions and their difference is the tracing overhead.
func measure(w workload, cfg runConfig, rec *trace.Recorder, chk *checker) loopResult {
	var (
		mu      sync.Mutex
		res     loopResult
		started int
		busy    float64
	)
	next := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if (cfg.maxOps > 0 && started >= cfg.maxOps) || (started >= cfg.minOps && busy >= cfg.seconds) {
			return false
		}
		started++
		return true
	}
	clients := w.clients()
	h0, m0 := w.cacheStats()
	a0 := heapAllocs()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; next(); i++ {
				o := &opCtx{client: c, traced: cfg.traced && i%2 == 0, counts: map[string]float64{}}
				if o.traced {
					o.rec, o.spanID, o.layers = rec, rec.NewSpanID(), map[string]float64{}
				}
				err := w.op(o)
				if o.end.IsZero() { // failed before its measured interval closed
					o.end = time.Now()
					if o.start.IsZero() {
						o.start = o.end
					}
				}
				for _, out := range o.outputs {
					if err == nil {
						err = chk.check(out.part, out.data)
					}
				}
				if o.traced {
					rec.Record(trace.Span{
						TraceID: rec.TraceID(), SpanID: o.spanID,
						Name: "op " + cfg.workload, Start: o.start, End: o.end,
						Attrs: map[string]string{"node": o.node()},
					})
				}
				o.outputs = nil // checked; drop the bytes
				mu.Lock()
				res.ops = append(res.ops, o)
				busy += o.wall() / float64(clients)
				if err != nil {
					res.failed++
					if len(res.firstErrs) < 5 {
						res.firstErrs = append(res.firstErrs, err.Error())
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.allocTotal = heapAllocs() - a0
	h1, m1 := w.cacheStats()
	res.hits, res.misses = h1-h0, m1-m0
	return res
}

// replayCheck renders every part no golden entry pins again from the
// workload's store, off the clock, and compares the bytes with what the
// operations produced. Only parts whose figures the cache serves whole are
// replayed: for the others (the predictor, registry.Descriptor.Uncached
// figures) a render recomputes rather than replays, and the operations and
// processes of the run already agree with each other.
func replayCheck(w workload, chk *checker) error {
	var parts []part
	for _, p := range chk.unpinned() {
		sel, err := selection(p.figs)
		if err != nil {
			return err
		}
		replayable := len(sel) > 0
		for _, d := range sel {
			replayable = replayable && d.Points != nil && !d.Uncached
		}
		if replayable {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	store, err := w.replayStore()
	if err != nil {
		return err
	}
	for _, p := range parts {
		data, err := p.render(store)
		if err != nil {
			return err
		}
		if err := chk.check(p, data); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// logf writes progress to stderr; standard output carries only results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
