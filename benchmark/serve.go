package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/obs"
	"github.com/embodiedai/create/internal/service"
)

// serve-mixed drives an in-process create-serve daemon over HTTP from
// nproc closed-loop clients. Its traffic is 70 % warm specs, whose grids
// set-up pre-filled, and 30 % cold specs at fresh seeds, over 3 tenants;
// every tenth cold spec is submitted twice back to back, so the second
// submission coalesces onto the live first job (dedupe). Warm jobs set the
// median and cold jobs the tail; at 70 % the median sits well inside the
// warm jobs rather than next to the cheapest cold ones, where it jumped
// from run to run.
var (
	warmFigs = []string{"fig19", "fig15", "fig1", "fig6"}
	coldFigs = []string{"fig19", "fig15", "fig1"}
	tenants  = []string{"tenant-a", "tenant-b", "tenant-c"}
)

const coldPerBlock = 3

type serveMixed struct {
	cfg    runConfig
	store  *cache.Store
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	gen    *jobGen
}

func newServeMixed(cfg runConfig) workload { return &serveMixed{cfg: cfg} }

func (s *serveMixed) clients() int { return nproc }

func (s *serveMixed) parts() []part {
	out := make([]part, len(warmFigs))
	for i, fig := range warmFigs {
		out[i] = part{figs: fig, trials: s.cfg.scale.warmTrials, seed: s.cfg.seed}
	}
	return out
}

func (s *serveMixed) setup() error {
	var err error
	if s.store, err = cache.New(""); err != nil {
		return err
	}
	env := experiments.NewEnv()
	env.Cache = s.store
	s.srv = service.New(service.Config{Env: env, Store: s.store, Workers: nproc, MaxConcurrentJobs: 2})
	s.srv.Start()
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	s.gen = newJobGen(s.cfg)
	for _, p := range s.parts() {
		seed := p.seed
		spec := service.JobSpec{Experiment: p.figs, Trials: p.trials, Seed: &seed, Tenant: tenants[0]}
		if _, err := s.job(nil, spec); err != nil {
			return fmt.Errorf("pre-filling %s: %w", p.key(), err)
		}
	}
	return nil
}

func (s *serveMixed) op(o *opCtx) error {
	spec := s.gen.next()
	o.begin()
	data, err := s.job(o, spec)
	o.finish()
	if err != nil {
		return err
	}
	o.emit(part{figs: spec.Experiment, trials: spec.Trials, seed: *spec.Seed}, data)
	return nil
}

// job submits spec, follows its event stream to the end, and fetches the
// rendered result: one served job as a client sees it. In a traced
// operation each request is a span, and the job's timing record supplies
// the server-side stage durations.
func (s *serveMixed) job(o *opCtx, spec service.JobSpec) ([]byte, error) {
	if o == nil {
		o = &opCtx{}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	o.span("service.submit_s", func() { err = s.call(http.MethodPost, "/v1/jobs", body, &st) })
	if err != nil {
		return nil, err
	}
	var last service.Event
	o.span("service.wait_s", func() { last, err = s.follow(st.ID) })
	if err != nil {
		return nil, err
	}
	if last.State != service.StateDone {
		return nil, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, spec.Experiment, last.State, last.Message)
	}
	var out []byte
	o.span("service.fetch_s", func() { out, err = s.get("/v1/jobs/" + st.ID + "/result") })
	if err != nil || !o.traced {
		return out, err
	}
	var tm obs.JobTiming
	o.span("service.timing", func() { err = s.call(http.MethodGet, "/v1/jobs/"+st.ID+"/timing", nil, &tm) })
	if err != nil {
		return nil, err
	}
	o.layers["service.queue_wait_s"] = tm.QueueWaitSeconds
	o.layers["service.plan_s"] = tm.PlanSeconds
	o.layers["service.compute_s"] = tm.ComputeSeconds
	o.layers["service.render_s"] = tm.RenderSeconds
	o.counts["service.dedupe_joins"] = float64(tm.DedupeJoins)
	if tm.GridPoints > 0 {
		o.layers["experiments.point_ms"] = tm.ComputeSeconds * 1e3 / float64(tm.GridPoints)
	}
	return out, nil
}

// follow reads a job's NDJSON event stream to its end and returns the last
// job event (keepalive lines carry no state and are skipped).
func (s *serveMixed) follow(id string) (service.Event, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return service.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Event{}, fmt.Errorf("events for %s returned %d", id, resp.StatusCode)
	}
	var last service.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev service.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return last, nil
		} else if err != nil {
			return service.Event{}, fmt.Errorf("events for %s: %w", id, err)
		}
		if ev.State != "" {
			last = ev
		}
	}
}

func (s *serveMixed) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s returned %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// call issues a JSON request and decodes a 2xx response into out.
func (s *serveMixed) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s returned %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *serveMixed) cacheStats() (hits, misses int64) { return s.store.Hits(), s.store.Misses() }

func (s *serveMixed) replayStore() (*cache.Store, error) { return s.store, nil }

func (s *serveMixed) end(ops int) (endState, error) {
	entries, err := collectEntries(s.store, s.parts())
	if err != nil {
		return endState{}, err
	}
	computed, err := collectEntries(s.store, s.gen.coldParts())
	if err != nil {
		return endState{}, err
	}
	st := endState{entries: entries, cacheEntries: s.store.Len()}
	if ops > 0 {
		episodes, steps := work(computed)
		st.episodes, st.steps = episodes/float64(ops), steps/float64(ops)
	}
	return st, nil
}

func (s *serveMixed) close() {
	s.srv.Close()
	s.ts.Close()
	s.client.CloseIdleConnections()
}

// jobGen is serve-mixed's seeded job sequence. It deals jobs in blocks of
// ten, coldPerBlock of them cold, in a seeded order, so every stretch of
// traffic has the same mix whatever the seed; the seed picks the order, the
// tenants and the cold specs' seeds.
type jobGen struct {
	mu         sync.Mutex
	rng        *rand.Rand
	seed       int64
	scale      scale
	queue      []service.JobSpec
	warm, cold int
	colds      []part
}

func newJobGen(cfg runConfig) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(cfg.seed)), seed: cfg.seed, scale: cfg.scale}
}

func (g *jobGen) next() service.JobSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 {
		g.refill()
	}
	spec := g.queue[0]
	g.queue = g.queue[1:]
	return spec
}

func (g *jobGen) refill() {
	block := make([]bool, 10) // true = cold
	for i := 0; i < coldPerBlock; i++ {
		block[i] = true
	}
	g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	for _, cold := range block {
		tenant := tenants[g.rng.Intn(len(tenants))]
		if !cold {
			seed := g.seed
			g.queue = append(g.queue, service.JobSpec{
				Experiment: warmFigs[g.warm%len(warmFigs)], Trials: g.scale.warmTrials, Seed: &seed, Tenant: tenant})
			g.warm++
			continue
		}
		// Fresh seeds above the warm seed: no cold spec is ever cached
		// before its first submission.
		seed := g.seed + 1 + int64(g.cold)
		spec := service.JobSpec{
			Experiment: coldFigs[g.cold%len(coldFigs)], Trials: g.scale.coldTrials, Seed: &seed, Tenant: tenant}
		g.queue = append(g.queue, spec)
		if g.cold%10 == 9 {
			g.queue = append(g.queue, spec)
		}
		g.colds = append(g.colds, part{figs: spec.Experiment, trials: spec.Trials, seed: seed})
		g.cold++
	}
}

// coldParts lists every cold spec dealt so far.
func (g *jobGen) coldParts() []part {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]part(nil), g.colds...)
}
