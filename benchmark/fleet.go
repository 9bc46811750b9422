package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/dispatch"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs/trace"
	"github.com/embodiedai/create/internal/service"
)

// fleet-sharded runs a dispatch.Coordinator over fleetWorkers in-process
// create-serve workers reached through loopback HTTPRunners, splitting the
// figures into fleetShards shards. Every operation gets fresh caches on
// every tier, so the workers compute, the coordinator merges their entries,
// and the replay renders from the merged cache.
const (
	fleetFigs    = "fig16,fig19,fig20"
	fleetWorkers = 2
	fleetShards  = 4
)

type fleetSharded struct {
	cfg  runConfig
	cur  *fleet // fixtures of the current (or last) operation
	ops  int
	dead struct{ hits, misses int64 } // counters of retired fleets' stores
}

// fleet is one operation's fixtures: a coordinator cache and the workers.
type fleet struct {
	dir     string
	store   *cache.Store
	workers []*fleetWorker
	client  *http.Client
}

type fleetWorker struct {
	store *cache.Store
	srv   *service.Server
	ts    *httptest.Server
}

func newFleetSharded(cfg runConfig) workload { return &fleetSharded{cfg: cfg} }

func (f *fleetSharded) clients() int { return 1 }

func (f *fleetSharded) parts() []part {
	return []part{{figs: fleetFigs, trials: f.cfg.scale.sweepTrials, seed: f.cfg.seed}}
}

func (f *fleetSharded) setup() error { return nil }

// newFleet boots fresh workers and a fresh coordinator cache, off the clock.
func (f *fleetSharded) newFleet() (*fleet, error) {
	dir, err := os.MkdirTemp(f.cfg.workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	fl := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{}}}
	if fl.store, err = cache.New(filepath.Join(dir, "coordinator")); err != nil {
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		store, err := cache.New(filepath.Join(dir, "worker-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		env := experiments.NewEnv()
		env.Cache = store
		srv := service.New(service.Config{Env: env, Store: store, Workers: 1})
		srv.Start()
		fl.workers = append(fl.workers, &fleetWorker{store: store, srv: srv, ts: httptest.NewServer(srv.Handler())})
	}
	return fl, nil
}

// retire stops the fleet's workers and keeps its counters.
func (f *fleetSharded) retire(fl *fleet) {
	for _, w := range fl.workers {
		w.srv.Close()
		w.ts.Close()
	}
	fl.client.CloseIdleConnections()
	h, m := fl.stats()
	f.dead.hits += h
	f.dead.misses += m
}

func (fl *fleet) stats() (hits, misses int64) {
	hits, misses = fl.store.Hits(), fl.store.Misses()
	for _, w := range fl.workers {
		hits += w.store.Hits()
		misses += w.store.Misses()
	}
	return hits, misses
}

func (f *fleetSharded) op(o *opCtx) error {
	if f.cur != nil {
		f.retire(f.cur)
		if err := os.RemoveAll(f.cur.dir); err != nil {
			return err
		}
		f.cur = nil
	}
	fl, err := f.newFleet()
	if err != nil {
		return err
	}
	f.cur = fl
	sel, err := selection(fleetFigs)
	if err != nil {
		return err
	}
	env := experiments.NewEnv()
	env.Cache = fl.store
	coord := &dispatch.Coordinator{Env: env, Store: fl.store}
	if o.traced {
		// A recorder per operation, shared with the runners as
		// create-coordinator -trace-out does; its own trace ID keeps span
		// IDs distinct across operations.
		coord.Trace = trace.NewRecorder(trace.DeriveTraceID("fleet-sharded", f.ops), "coordinator")
		coord.Trace.SetMaxSpans(1 << 16)
	}
	f.ops++
	for i, w := range fl.workers {
		coord.Runners = append(coord.Runners, &dispatch.HTTPRunner{
			BaseURL:  w.ts.URL,
			Client:   fl.client,
			StageDir: filepath.Join(fl.dir, "stage-"+strconv.Itoa(i)),
			Local:    fl.store,
			Trace:    coord.Trace,
		})
	}
	opt := experiments.Options{Trials: f.cfg.scale.sweepTrials, Seed: f.cfg.seed, Workers: nproc}

	var buf bytes.Buffer
	o.begin()
	_, err = coord.Run(context.Background(), &buf, sel, opt, fleetShards, false)
	o.finish()
	if err != nil {
		return err
	}
	o.emit(f.parts()[0], buf.Bytes())

	for name, v := range dispatchCounters(coord) {
		o.counts[name] = v
	}
	if o.traced {
		f.attribute(o, coord.Trace.Spans())
		var computed int64
		for _, w := range fl.workers {
			computed += w.store.Misses()
		}
		if computed > 0 {
			o.layers["experiments.point_ms"] = o.layers["dispatch.worker_compute_s"] * 1e3 / float64(computed)
		}
	}
	return nil
}

// attribute turns the coordinator's spans into the dispatch layer's
// numbers and files them under the operation: everything but the fleet
// root span counts towards the operation's attributed time.
func (f *fleetSharded) attribute(o *opCtx, spans []trace.Span) {
	var dispatched []interval
	var workerCompute, merge float64
	for _, s := range spans {
		d := s.End.Sub(s.Start).Seconds()
		switch {
		case s.Name == "coordinate":
			continue
		case s.Name == "plan":
			o.layers["dispatch.plan_s"] += d
		case s.Name == "replay":
			o.layers["dispatch.replay_s"] += d
		case strings.HasPrefix(s.Name, "dispatch "):
			dispatched = append(dispatched, interval{s.Start, s.End})
		case strings.HasPrefix(s.Name, "merge "):
			merge += d
		case s.Name == "compute":
			workerCompute += d
		}
		o.spans = append(o.spans, interval{s.Start, s.End})
	}
	o.layers["dispatch.dispatch_s"] = covered(dispatched).Seconds()
	o.layers["dispatch.worker_compute_s"] = workerCompute
	o.layers["dispatch.merge_s"] = merge
	o.rec.Import(spans)
}

// dispatchCounters reads the coordinator's shard accounting from its
// Prometheus exposition, the surface create-coordinator -metrics-out writes.
func dispatchCounters(c *dispatch.Coordinator) map[string]float64 {
	out := map[string]float64{
		"dispatch.shards_dispatched": 0,
		"dispatch.entries_merged":    0,
		"dispatch.retries":           0,
	}
	if c.Metrics == nil {
		return out
	}
	var text bytes.Buffer
	c.Metrics.WritePrometheus(&text)
	sc := bufio.NewScanner(&text)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, `create_dispatch_shards_total{state="dispatched"}`):
			out["dispatch.shards_dispatched"] += v
		case strings.HasPrefix(line, "create_dispatch_merged_entries_total"):
			out["dispatch.entries_merged"] += v
		case strings.HasPrefix(line, "create_dispatch_retries_total"):
			out["dispatch.retries"] += v
		}
	}
	return out
}

func (f *fleetSharded) cacheStats() (hits, misses int64) {
	hits, misses = f.dead.hits, f.dead.misses
	if f.cur != nil {
		h, m := f.cur.stats()
		hits += h
		misses += m
	}
	return hits, misses
}

func (f *fleetSharded) replayStore() (*cache.Store, error) {
	return cache.New(filepath.Join(f.cur.dir, "coordinator"))
}

func (f *fleetSharded) end(ops int) (endState, error) {
	if f.cur == nil {
		return endState{}, nil
	}
	store, err := f.replayStore()
	if err != nil {
		return endState{}, err
	}
	entries, err := collectEntries(store, f.parts())
	if err != nil {
		return endState{}, err
	}
	st := endState{entries: entries, cacheEntries: f.cur.store.Len(), cacheDirs: []string{f.cur.dir}}
	// The workers computed every entry the merged coordinator cache holds,
	// once per operation.
	st.episodes, st.steps = work(entries)
	for _, w := range f.cur.workers {
		st.cacheEntries += w.store.Len()
	}
	return st, nil
}

func (f *fleetSharded) close() {
	if f.cur != nil {
		f.retire(f.cur)
	}
}
