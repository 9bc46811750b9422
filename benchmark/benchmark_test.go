package main

import (
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for one traced operation at the
// smoke scale (trials 1): every output must match golden.json or its
// replay, and the emitted metric names and units must be exactly the ones
// BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, d := range m.EndToEnd {
		wantE2E[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		wantLayers[d.Name] = d.Unit
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 2026, traced: true, scale: smokeScale, minOps: 1, maxOps: 1, workDir: t.TempDir()}
			w, err := newWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range w.parts() {
				if _, ok := g[p.key()]; !ok {
					t.Errorf("golden.json has no entry for %s; regenerate it with -write-golden", p.key())
				}
			}
			rr, err := runInProcess(cfg, time.Now(), "")
			if err != nil {
				t.Fatal(err)
			}
			if !rr.Correct || rr.Failed != 0 || rr.Attempted < 1 {
				t.Fatalf("%d of %d operations failed: %v", rr.Failed, rr.Attempted, rr.Errors)
			}
			check := func(kind string, got map[string]metric, want map[string]string) {
				for n, unit := range want {
					if m, ok := got[n]; !ok {
						t.Errorf("%s metric %s declared in BENCHMARK.json but not emitted", kind, n)
					} else if m.Unit != unit {
						t.Errorf("%s metric %s emitted in %s, BENCHMARK.json says %s", kind, n, m.Unit, unit)
					}
				}
				for n := range got {
					if _, ok := want[n]; !ok {
						t.Errorf("%s metric %s emitted but not declared in BENCHMARK.json", kind, n)
					}
				}
			}
			check("end-to-end", rr.EndToEnd, wantE2E)
			check("per-layer", rr.PerLayer, wantLayers)
		})
	}
}
