// Command benchmark measures the evaluation stack end to end and layer by
// layer on five workloads (see README.md):
//
//	bash benchmark/run.sh                        # every workload, from the repository root
//	bash benchmark/run.sh --workload serve-mixed --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload fleet-sharded --trace 1   # per-layer metrics + Chrome trace
//	bash benchmark/run.sh -agree a.json b.json   # compare two sets of runs
//
// Each workload runs in fresh child processes (this program re-executed
// with -child), so no workload inherits another's warm state. An untraced
// run prints the end-to-end metrics, a traced run the per-layer metrics;
// both print a table, write every run to -out, and end standard output
// with one JSON line {"correct", "attempted", "failed", "metrics"}. The
// exit status is non-zero when any operation failed or any output did not
// match its reference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/embodiedai/create/internal/cache"
)

// processes is how many fresh processes an untraced run spreads over. Each
// sets the workload up and measures a share of -seconds, and every
// end-to-end metric is the median over them, so one slow process or one
// noisy stretch on a shared host moves the result little; setup_s is the
// median of their set-ups.
const processes = 3

// childTimeout bounds one workload's processes, keeping every invocation
// within three minutes.
const childTimeout = 170 * time.Second

func main() {
	start := time.Now()
	var (
		name        = flag.String("workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
		seed        = flag.Int64("seed", 2026, "workload seed: the experiments' Options.Seed and serve-mixed's job generator seed")
		seconds     = flag.Float64("seconds", 10, "measured time per run (every run does at least a few operations)")
		traced      = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, and a Chrome trace in -trace-dir")
		traceDir    = flag.String("trace-dir", ".bench_build", "directory traced runs write trace-<workload>-<seed>.json to")
		out         = flag.String("out", ".bench_build/results.json", "file every run record is written to")
		repeat      = flag.Int("repeat", 1, "runs per workload, at seeds seed, seed+1, ...")
		agree       = flag.Bool("agree", false, "compare two results files per workload and end-to-end metric: -agree a.json b.json")
		writeGolden = flag.String("write-golden", "", "regenerate the reference output hashes into this file and exit")
		child       = flag.Bool("child", false, "run one process of a run in this process (the parent re-executes itself with it)")
	)
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(2, "-agree takes two results files")
		}
		worse, err := runAgree(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	case *writeGolden != "":
		if err := writeGoldenFile(*writeGolden); err != nil {
			fatal(1, err.Error())
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(2, "-trace takes 0 or 1")
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, scale: benchScale, minOps: 1}
	if cfg.traced {
		cfg.minOps = 4 // two traced and two untraced
	}

	if *child {
		dir, err := os.MkdirTemp("", "create-benchmark-")
		if err != nil {
			fatal(1, err.Error())
		}
		cfg.workDir = dir
		var traceFile string
		if cfg.traced {
			traceFile = filepath.Join(*traceDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		}
		rr, err := runInProcess(cfg, start, traceFile)
		os.RemoveAll(dir)
		if err != nil {
			fatal(1, err.Error())
		}
		line, err := json.Marshal(rr)
		if err != nil {
			fatal(1, err.Error())
		}
		fmt.Println(string(line))
		return
	}

	names := workloadNames()
	if *name != "all" {
		if !slices.Contains(names, *name) {
			fatal(2, fmt.Sprintf("unknown workload %q", *name))
		}
		names = []string{*name}
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(1, err.Error())
	}
	var records []runRecord
	ok := true
	for _, n := range names {
		for i := 0; i < max(*repeat, 1); i++ {
			c := cfg
			c.workload, c.seed = n, cfg.seed+int64(i)
			rr, err := runWorkload(exe, c, *traceDir)
			if err != nil {
				logf("%s seed %d: %v", n, c.seed, err)
				ok = false
				continue
			}
			printRecord(os.Stdout, rr)
			ok = ok && rr.Correct && rr.Failed == 0
			records = append(records, rr)
		}
	}
	if err := writeResults(*out, records); err != nil {
		logf("%v", err)
		ok = false
	}
	if len(records) == 0 {
		os.Exit(1) // nothing measured: no result line
	}
	printResultLine(os.Stdout, records, len(names) > 1 || *repeat > 1)
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

// runWorkload runs one workload in fresh child processes, one after the
// other: an untraced run in `processes` of them, each measuring its share
// of cfg.seconds; a traced run in one.
func runWorkload(exe string, cfg runConfig, traceDir string) (runRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	procs := processes
	if cfg.traced {
		procs = 1
	}
	share := cfg
	share.seconds /= float64(procs)
	var children []childRecord
	for i := 0; i < procs; i++ {
		cr, err := spawn(ctx, exe, share, traceDir)
		if err != nil {
			return runRecord{}, err
		}
		children = append(children, cr)
	}
	rr := combine(children)
	rr.Seconds = cfg.seconds
	return rr, nil
}

// combine merges the records of one run's processes. Every end-to-end
// metric is the median over the processes, with the samples behind them
// added up; operation counts add up; the wall-time tail comes from the
// pooled operations; and the processes' outputs must agree part by part.
func combine(children []childRecord) runRecord {
	rr := children[0].runRecord
	rr.Attempted, rr.Failed, rr.Errors = 0, 0, nil
	rr.EndToEnd = map[string]metric{}
	var walls []float64
	outputs := map[string]string{}
	for _, c := range children {
		rr.Correct = rr.Correct && c.Correct
		rr.Attempted += c.Attempted
		rr.Failed += c.Failed
		rr.Errors = append(rr.Errors, c.Errors...)
		walls = append(walls, c.Walls...)
		for key, h := range c.Outputs {
			if prev, ok := outputs[key]; ok && prev != h {
				rr.Correct = false
				rr.Failed++
				rr.Errors = append(rr.Errors, fmt.Sprintf("%s: processes disagree (sha256 %s vs %s)", key, prev[:12], h[:12]))
			}
			outputs[key] = h
		}
	}
	for _, d := range endToEnd {
		var xs []float64
		n := 0
		for _, c := range children {
			xs = append(xs, c.EndToEnd[d.name].Value)
			n += c.EndToEnd[d.name].N
		}
		rr.EndToEnd[d.name] = metric{median(xs), d.unit, n}
	}
	rr.WallTail = nil
	if pct, v, ok := tail(walls); ok {
		rr.WallTail = &tailValue{pct, v}
	}
	return rr
}

// spawn re-executes this program as one process of a run and decodes the
// record it prints last.
func spawn(ctx context.Context, exe string, cfg runConfig, traceDir string) (childRecord, error) {
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.traced],
		"-trace-dir", traceDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return childRecord{}, fmt.Errorf("%s child: %w", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var cr childRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
		return cr, fmt.Errorf("%s child printed no record: %w", cfg.workload, err)
	}
	return cr, nil
}

// printRecord writes one run as a table of metrics with units and sample
// counts.
func printRecord(w io.Writer, rr runRecord) {
	status := "correct"
	if !rr.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "%s seed %d%s: %d ops, %d failed (error_rate %.4g), outputs %s\n",
		rr.Workload, rr.Seed, map[bool]string{true: " traced"}[rr.Traced], rr.Attempted, rr.Failed,
		float64(rr.Failed)/float64(max(rr.Attempted, 1)), status)
	for _, e := range rr.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	table := func(defs []metricDef, m map[string]metric) {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %-9s n=%d\n", d.name, v.Value, v.Unit, v.N)
			}
		}
	}
	table(endToEnd, rr.EndToEnd)
	if rr.WallTail != nil {
		fmt.Fprintf(w, "  %-30s %14.6g %-9s (p%g)\n", "wall_tail_s", rr.WallTail.Value, "s", rr.WallTail.Percentile)
	}
	table(perLayer, rr.PerLayer)
}

// printResultLine ends standard output with the machine-readable summary:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. Over several runs, metric names are prefixed with
// "<workload>/<seed>.".
func printResultLine(w io.Writer, records []runRecord, prefixed bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rr := range records {
		line.Correct = line.Correct && rr.Correct
		line.Attempted += rr.Attempted
		line.Failed += rr.Failed
		m := rr.EndToEnd
		if rr.Traced {
			m = rr.PerLayer
		}
		for k, v := range m {
			if prefixed {
				k = fmt.Sprintf("%s/%d.%s", rr.Workload, rr.Seed, k)
			}
			line.Metrics[k] = value{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Fprintln(w, string(data))
}

// results is the file -out writes and -agree reads.
type results struct {
	Runs []runRecord `json:"runs"`
}

func writeResults(path string, records []runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(results{records}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return r.Runs, nil
}

// manifest is BENCHMARK.json, the benchmark's declaration of its workloads
// and metrics.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the repository root, whether the
// program runs from there or from benchmark/.
func loadManifest() (manifest, error) {
	var m manifest
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return m, err
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return m, fmt.Errorf("decoding %s: %w", path, err)
		}
		return m, nil
	}
	return m, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// runAgree compares two sets of untraced runs per workload and end-to-end
// metric and prints a verdict for each; it reports whether any got worse.
func runAgree(w io.Writer, pathA, pathB string) (bool, error) {
	m, err := loadManifest()
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(runs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, rr := range runs {
			if v, ok := rr.EndToEnd[metric]; ok && rr.Workload == workload && !rr.Traced {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-14s %-13s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	worse := false
	for _, wl := range workloadNames() {
		for _, def := range m.EndToEnd {
			xa, xb := values(a, wl, def.Name), values(b, wl, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(xa, xb, def.Bound, def.Better == "higher")
			worse = worse || v == "worse"
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "%-14s %-13s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, def.Name, ma, mb, (mb-ma)/ma*100, spread(xa)*100, spread(xb)*100, def.Bound*100, v)
		}
	}
	return worse, nil
}

// writeGoldenFile hashes, at seed 2026 and at both scales, every output
// part whose bytes create-bench can print: figures rendered through
// dispatch.Render over a fresh in-memory cache, the exact path of
// `create-bench -exp <fig> -trials <T> -seed 2026`, plus the Fig. 14
// predictor line.
func writeGoldenFile(path string) error {
	g := golden{}
	for _, s := range []scale{benchScale, smokeScale} {
		for _, wl := range workloads {
			for _, p := range wl.build(runConfig{seed: 2026, scale: s}).parts() {
				if _, ok := g[p.key()]; ok {
					continue
				}
				store, err := cache.New("")
				if err != nil {
					return err
				}
				data, err := p.render(store)
				if err != nil {
					return err
				}
				g[p.key()] = hash(data)
				logf("%s %s", p.key(), g[p.key()][:12])
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ") // sorted keys
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
