package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/registry"
)

// storeMode is how a figures workload's operations reach the cache.
type storeMode int

const (
	// freshStore: every operation computes into a new, empty disk cache.
	freshStore storeMode = iota
	// reopenStore: every operation opens a new Store over one directory an
	// untimed fill populated (OS page cache warm, Store cold).
	reopenStore
	// sharedStore: every operation reads one in-memory store whose grid
	// points set-up computed, so only uncached work runs.
	sharedStore
)

// figures renders registry figures through Descriptor.Run and
// Result.Render, the calls create-bench makes: sweep-cold, replay-warm and
// model-kernels.
type figures struct {
	cfg       runConfig
	figs      []string
	trials    int
	workers   int
	mode      storeMode
	predictor *experiments.PredictorScale

	dir   string       // cache directory of the current store (disk modes)
	store *cache.Store // store of the last operation
	// retiredHits and retiredMisses carry the counters of stores earlier
	// operations used and dropped.
	retiredHits, retiredMisses int64
}

func newSweepCold(cfg runConfig) workload {
	return &figures{cfg: cfg, figs: []string{"fig16", "fig13", "fig19"}, trials: cfg.scale.sweepTrials, workers: nproc, mode: freshStore}
}

// newReplayWarm replays on one goroutine: the read path is the subject, and
// a grid fan-out would make every operation wait for the slower core,
// which on a shared host doubles the run-to-run noise.
func newReplayWarm(cfg runConfig) workload {
	return &figures{cfg: cfg, figs: []string{"fig16", "fig13", "fig19"}, trials: cfg.scale.sweepTrials, workers: 1, mode: reopenStore}
}

func newModelKernels(cfg runConfig) workload {
	p := cfg.scale.predictor
	return &figures{cfg: cfg, figs: []string{"fig5", "fig8", "fig9"}, trials: cfg.scale.kernelTrials, workers: nproc, mode: sharedStore, predictor: &p}
}

func (f *figures) clients() int { return 1 }

func (f *figures) options() experiments.Options {
	return experiments.Options{Trials: f.trials, Seed: f.cfg.seed, Workers: f.workers}
}

func (f *figures) parts() []part {
	out := make([]part, len(f.figs))
	for i, name := range f.figs {
		out[i] = part{figs: name, trials: f.trials, seed: f.cfg.seed}
	}
	if f.predictor != nil {
		out = append(out, part{seed: f.cfg.seed, predictor: *f.predictor})
	}
	return out
}

func (f *figures) setup() error {
	var err error
	switch f.mode {
	case reopenStore:
		if f.dir, err = os.MkdirTemp(f.cfg.workDir, "replay-"); err != nil {
			return err
		}
		fill, err := cache.New(f.dir)
		if err != nil {
			return err
		}
		for _, p := range f.parts() {
			if _, err := p.render(fill); err != nil {
				return err
			}
		}
	case sharedStore:
		// Fig. 5's resilience grid is the only cached part of the kernel
		// figures; computing it here leaves the systolic GEMM severity study
		// and the float training as the operation's work.
		if f.store, err = cache.New(""); err != nil {
			return err
		}
		env := experiments.NewEnv()
		env.Cache = f.store
		experiments.Fig5Planner(env, f.options())
		experiments.Fig5Controller(env, f.options())
	}
	return nil
}

func (f *figures) op(o *opCtx) error {
	// Off the clock: the previous operation's Store is retired, and in
	// freshStore mode its directory goes and a new empty one comes.
	if f.mode != sharedStore && f.store != nil {
		f.retiredHits += f.store.Hits()
		f.retiredMisses += f.store.Misses()
		f.store = nil
		if f.mode == freshStore {
			if err := os.RemoveAll(f.dir); err != nil {
				return err
			}
		}
	}
	if f.mode == freshStore {
		var err error
		if f.dir, err = os.MkdirTemp(f.cfg.workDir, "sweep-"); err != nil {
			return err
		}
	}
	sel, err := selection(strings.Join(f.figs, ","))
	if err != nil {
		return err
	}

	o.begin()
	defer o.finish()
	store := f.store
	if f.mode != sharedStore {
		o.span("cache.open", func() { store, err = cache.New(f.dir) })
		if err != nil {
			return err
		}
		f.store = store
	}
	env := experiments.NewEnv()
	env.Cache = store
	opt := f.options()
	h0, m0 := store.Hits(), store.Misses()
	var runS float64
	gridOnly := true // point_ms is meaningful only when runs do nothing but grid points
	for _, d := range sel {
		gridOnly = gridOnly && !d.Uncached
		var res registry.Result
		o.span("registry.run_s."+d.Name, func() { res = d.Run(env, opt) })
		var buf bytes.Buffer
		o.span("registry.render_s."+d.Name, func() { res.Render(&buf) })
		o.emit(part{figs: d.Name, trials: f.trials, seed: f.cfg.seed}, buf.Bytes())
		runS += o.layers["registry.run_s."+d.Name]
	}
	if f.predictor != nil {
		var r experiments.PredictorResult
		o.span("entropy.train_s", func() {
			r = experiments.Fig14Predictor(experiments.Options{Seed: f.cfg.seed}, *f.predictor)
		})
		o.emit(part{seed: f.cfg.seed, predictor: *f.predictor}, renderPredictor(r))
	}
	if points := store.Hits() + store.Misses() - h0 - m0; o.traced && gridOnly && points > 0 {
		o.layers["experiments.point_ms"] = runS * 1e3 / float64(points)
	}
	return nil
}

func (f *figures) cacheStats() (hits, misses int64) {
	hits, misses = f.retiredHits, f.retiredMisses
	if f.store != nil {
		hits += f.store.Hits()
		misses += f.store.Misses()
	}
	return hits, misses
}

func (f *figures) replayStore() (*cache.Store, error) {
	if f.mode == sharedStore {
		return f.store, nil
	}
	return cache.New(f.dir)
}

func (f *figures) end(ops int) (endState, error) {
	store, err := f.replayStore()
	if err != nil {
		return endState{}, err
	}
	entries, err := collectEntries(store, f.parts())
	if err != nil {
		return endState{}, err
	}
	st := endState{entries: entries, cacheEntries: len(entries)}
	if f.mode == freshStore {
		// Each operation computed every entry its fresh store holds.
		st.episodes, st.steps = work(entries)
	}
	if f.dir != "" {
		st.cacheDirs = []string{f.dir}
	}
	return st, nil
}

func (f *figures) close() {}

// dirBytes sums the sizes of the cache entry files under dirs.
func dirBytes(dirs []string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("weighing cache %s: %w", dir, err)
		}
	}
	return total, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
