// Command perfbench is the end-to-end and per-layer benchmark of the DEW
// tools. It generates its inputs from a seed, runs the explore and
// dewsim CLIs as child processes one at a time, checks every table
// against a golden and a refsim sample, and prints one JSON result line.
// A traced run (-trace 1) calls the CLIs' entry points and the layers
// beneath them in process and reports per-layer figures. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"cfg_maccess_per_s", "M/s"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.decode_maccess_per_s", "M/s"},
	{"trace.fold_s", "s"},
	{"trace.runs", "count"},
	{"trace.stream_wait_s", "s"},
	{"trace.stream_spans", "count"},
	{"trace.stream_bound_bytes", "B"},
	{"trace.stream_heap_peak_mib", "MiB"},
	{"core.simulate_s", "s"},
	{"core.ns_per_run", "ns"},
	{"core.passes", "count"},
	{"core.way_cmp_ratio", "ratio"},
	{"explore.run_s", "s"},
	{"explore.parallel_eff", "ratio"},
	{"store.source_id_s", "s"},
	{"store.load_stream_s", "s"},
	{"store.get_result_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"cli.entry_s", "s"},
	{"cli.wall_s", "s"},
	{"cli.peak_rss_mib", "MiB"},
	{"cli.overhead_s", "s"},
}

// Set-ups per run: setup_s is their median.
const setUps = 3

// runBudget bounds one invocation, set-up included.
const runBudget = 160 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", ".", "root of the DEW checkout")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built explore, dewsim and tracegen")
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		traced   = flag.Int("trace", 0, "0: time the CLIs (end-to-end metrics); 1: traced run (per-layer metrics)")
		selftest = flag.Bool("selftest", false, "run every workload once on a tiny trace with the oracle on, then exit")
	)
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if *selftest {
		return selfTest(ctx, *root, *bin)
	}
	w := lookupWorkload(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -trace 0 or 1, -seconds >= 0\n", workloadNames())
		return 2
	}
	o := options{root: *root, bin: *bin, w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		accesses: w.accesses, setUps: setUps, minRuns: 3}
	res, err := bench(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED workload %s, seed %d: %v\n  reproduce: bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d\n",
			w.name, *seed, err, w.name, *seed, *seconds, *traced)
		return 1
	}
	report(os.Stderr, res)
	rec, _ := json.Marshal(map[string]any{"perfbench_record": res.record})
	fmt.Println(string(rec))
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT workload %s, seed %d\n  reproduce: bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d\n",
			w.name, *seed, w.name, *seed, *seconds, *traced)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type options struct {
	root, bin string
	w         *workload
	seed      uint64
	seconds   float64
	traced    bool
	accesses  uint64
	setUps    int
	minRuns   int // measured CLI runs (and traced iterations) at least
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is everything else a run measured: host, spread of every
// metric, raw samples and the correctness checks.
type record struct {
	Workload         string               `json:"workload"`
	Seed             uint64               `json:"seed"`
	Seconds          float64              `json:"seconds"`
	Traced           bool                 `json:"traced"`
	Accesses         uint64               `json:"accesses"`
	Configs          int                  `json:"configs"`
	Loop             string               `json:"loop"`
	Host             hostRecord           `json:"host"`
	Metrics          map[string]summary   `json:"metrics"`
	Samples          map[string][]float64 `json:"samples"`
	FailedRunsFrac   float64              `json:"failed_runs_frac"`
	OracleSampled    int                  `json:"oracle_sampled"`
	OracleMismatches int                  `json:"oracle_mismatches"`
	PeakRSSFloorMiB  float64              `json:"peak_rss_floor_mib"`
	Counts           map[string]float64   `json:"counts,omitempty"`
	SpansFile        string               `json:"spans_file,omitempty"`
	Notes            []string             `json:"notes,omitempty"`
}

type result struct {
	out    output
	record record
}

// bench sets the workload up setUps times, then runs the measured CLI
// in a closed loop with one client for o.seconds, and in a traced run
// alternates it with traced in-process iterations. A probe runs right
// before and after every set-up and child, and the end-to-end times are
// scaled by it to the reference host speed (see probe.go).
func bench(ctx context.Context, o options) (*result, error) {
	w := o.w
	work := filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, os.Getpid()))
	defer os.RemoveAll(work)
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	r := newRunner(o.bin, tmp)

	var (
		fx         *fixture
		fxDir      string
		setupTimes []float64 // at the reference host speed (probe.go)
		setupRaw   []float64
		mismatches int
	)
	for i := range o.setUps {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		before := probe()
		start := time.Now()
		f, mm, err := setUp(ctx, r, w, o.seed, o.accesses, dir)
		took := time.Since(start).Seconds()
		scale := hostScale(before, probe())
		setupRaw = append(setupRaw, took)
		setupTimes = append(setupTimes, took*scale)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		mismatches += mm
		if fx != nil {
			if !bytes.Equal(f.golden, fx.golden) {
				return nil, errors.New("set-up is not deterministic: two set-ups from one seed gave different golden tables")
			}
			os.RemoveAll(fxDir)
		}
		fx, fxDir = f, dir
	}

	res := &result{record: record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Accesses: o.accesses, Configs: len(fx.order),
		Loop:             "closed loop, one client: one CLI child at a time, GOMAXPROCS default",
		Host:             describeHost(o.root),
		Metrics:          map[string]summary{},
		Samples:          map[string][]float64{},
		OracleSampled:    min(oracleSample, len(fx.order)) * o.setUps,
		OracleMismatches: mismatches,
	}}
	rec := &res.record

	var (
		samples   []sample
		tr        = newTracer()
		iters     []tracedIter
		overheads []float64 // CLI wall minus the paired in-process entry time
		failed    int
		runs      int
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < o.minRuns || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run budget of %v exceeded: %w", runBudget, err)
		}
		runs++
		before := probe()
		out, s, err := r.run(ctx, w.tool, w.measured(fx)...)
		s.scale = hostScale(before, probe())
		ok := false
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: run %d failed (seed %d): %v\n", i, o.seed, err)
		case !bytes.Equal(tableOf(out), fx.golden):
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: run %d printed a table that differs from the golden (seed %d)\n", i, o.seed)
		default:
			samples = append(samples, s)
			ok = true
		}
		if !o.traced {
			continue
		}
		runs++
		c, err := tracedIteration(ctx, w, fx, tr, i)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced iteration %d failed (seed %d): %v\n", i, o.seed, err)
			continue
		}
		if ok {
			overheads = append(overheads, s.wall-tr.selfSeconds(i)["cli.entry"])
		}
		iters = append(iters, tracedIter{i, c})
	}
	if len(samples) == 0 || (o.traced && len(iters) == 0) {
		return nil, fmt.Errorf("no run succeeded out of %d", runs)
	}

	var walls, cpus, rsss, rates, rawWalls, rawCPUs, scales []float64
	for _, s := range samples {
		walls = append(walls, s.wall*s.scale)
		cpus = append(cpus, s.cpu*s.scale)
		rsss = append(rsss, s.rssMiB)
		rates = append(rates, float64(len(fx.order))*float64(o.accesses)/(s.wall*s.scale)/1e6)
		rawWalls = append(rawWalls, s.wall)
		rawCPUs = append(rawCPUs, s.cpu)
		scales = append(scales, s.scale)
	}
	add := func(name string, xs []float64) {
		rec.Samples[name] = xs
		rec.Metrics[name] = summarize(xs)
	}
	add("raw.wall_s", rawWalls)
	add("raw.cpu_s", rawCPUs)
	add("raw.setup_s", setupRaw)
	add("host_scale", scales)
	res.out = output{Correct: failed == 0 && mismatches == 0, Attempted: runs, Failed: failed, Metrics: map[string]value{}}
	rec.FailedRunsFrac = float64(failed) / float64(runs)
	rec.PeakRSSFloorMiB = r.floorMiB

	defs := endToEnd
	if !o.traced {
		add("wall_s", walls)
		add("cpu_s", cpus)
		add("peak_rss_mib", rsss)
		add("cfg_maccess_per_s", rates)
		add("setup_s", setupTimes)
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"times are at the reference host speed, where the probe takes %v; host_scale (median %.4f) converts the raw times, whose medians are wall %.4f s, cpu %.4f s, set-up %.4f s",
			probeRef, rec.Metrics["host_scale"].Median, rec.Metrics["raw.wall_s"].Median,
			rec.Metrics["raw.cpu_s"].Median, rec.Metrics["raw.setup_s"].Median))
	} else {
		defs = perLayer
		add("cli.wall_s", rawWalls)
		add("cli.peak_rss_mib", rsss)
		layers, exact, err := layerMetrics(tr, iters, float64(o.accesses))
		if err != nil {
			return nil, err
		}
		for name, xs := range layers {
			add(name, xs)
		}
		rec.Counts = exact
		rec.SpansFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := tr.write(o.root, rec.SpansFile); err != nil {
			return nil, err
		}
		add("cli.overhead_s", overheads)
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"tracing overhead: the untraced CLI wall time %.4f s against the traced in-process entry %.4f s",
			rec.Metrics["cli.wall_s"].Median, rec.Metrics["cli.entry_s"].Median))
		if bound := rec.Metrics["trace.stream_bound_bytes"].Median; bound > 0 {
			rec.Notes = append(rec.Notes, fmt.Sprintf(
				"stream memory: configured bound %.2f MiB (the CLI's \"peak ... stream resident\"), measured heap peak %.2f MiB, child max RSS %.2f MiB",
				bound/(1<<20), rec.Metrics["trace.stream_heap_peak_mib"].Median, rec.Metrics["cli.peak_rss_mib"].Median))
		}
		if ratio, ok := exact["core.way_cmp_ratio"]; ok && ratio > 0 {
			rec.Notes = append(rec.Notes, fmt.Sprintf(
				"way comparisons: refsim makes %.2fx the tag comparisons of DEW on this pass; the paper reports 2.17-19.42x. "+
					"The model is validated against refsim, an exact per-configuration simulator, not against Dinero IV or hardware.", ratio))
		}
	}
	for _, d := range defs {
		res.out.Metrics[d.name] = value{Value: rec.Metrics[d.name].Median, Unit: d.unit}
	}
	return res, nil
}

// tracedIter is one successful traced iteration: its span iteration
// number and its counts.
type tracedIter struct {
	iter   int
	counts counts
}

// layerMetrics turns every traced iteration's spans and counts into
// per-layer samples. Every layer runs on every workload; only
// core.way_cmp_ratio (pass_din) and explore.parallel_eff (not on
// ladder_stream) read 0 elsewhere. Exact counts must agree across
// iterations; they are returned once.
func layerMetrics(tr *tracer, iters []tracedIter, accesses float64) (map[string][]float64, map[string]float64, error) {
	out := map[string][]float64{}
	for _, it := range iters {
		self, c := tr.selfSeconds(it.iter), it.counts
		decode, fold, sim, run := self["trace.decode"], self["trace.fold"], self["core.simulate"], self["explore.run"]
		m := map[string]float64{
			"trace.decode_s":             decode,
			"trace.fold_s":               fold,
			"trace.stream_wait_s":        self["trace.stream_wait"],
			"trace.stream_bound_bytes":   c["trace.stream_bound_bytes"],
			"trace.stream_heap_peak_mib": c["trace.stream_heap_peak_mib"],
			"core.simulate_s":            sim,
			"explore.run_s":              run,
			"store.source_id_s":          self["store.source_id"],
			"store.load_stream_s":        self["store.load_stream"],
			"store.get_result_s":         self["store.get_result"],
			"cli.entry_s":                self["cli.entry"],
		}
		for _, name := range exactCounts {
			m[name] = c[name]
		}
		if decode > 0 {
			m["trace.decode_maccess_per_s"] = accesses / decode / 1e6
		}
		if c["core.runs_replayed"] > 0 {
			m["core.ns_per_run"] = sim * 1e9 / c["core.runs_replayed"]
		}
		// Only where explore.Run schedules exactly the passes timed one
		// after another; on ladder_stream its block range holds 5 rungs
		// against dewsim's 3.
		if run > 0 && c["explore.passes"] == c["core.passes"] {
			m["explore.parallel_eff"] = (decode + fold + sim) / (exploreWorkers * run)
		}
		for _, d := range perLayer {
			if d.name == "cli.wall_s" || d.name == "cli.peak_rss_mib" || d.name == "cli.overhead_s" {
				continue // from the untraced children
			}
			out[d.name] = append(out[d.name], m[d.name])
		}
	}
	exact := map[string]float64{}
	for _, name := range exactCounts {
		for _, v := range out[name] {
			if v != out[name][0] {
				return nil, nil, fmt.Errorf("exact count %s differs between traced iterations: %v", name, out[name])
			}
		}
		exact[name] = out[name][0]
	}
	exact["core.runs_replayed"] = iters[0].counts["core.runs_replayed"]
	exact["explore.passes"] = iters[0].counts["explore.passes"]
	return out, exact, nil
}

// report prints a readable summary of a result to w.
func report(w io.Writer, res *result) {
	rec := res.record
	fmt.Fprintf(w, "perfbench %s seed %d: %d runs, %d failed, oracle %d/%d sampled configurations mismatched\n",
		rec.Workload, rec.Seed, res.out.Attempted, res.out.Failed, rec.OracleMismatches, rec.OracleSampled)
	fmt.Fprintf(w, "  host: %s, %d CPUs, GOMAXPROCS %d, %s, rev %s, source %s\n",
		rec.Host.CPUModel, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GitRev, rec.Host.SourceDigest)
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		s := rec.Metrics[d.name]
		fmt.Fprintf(w, "  %-28s median %-12.6g p25 %-12.6g p75 %-12.6g n %-3d %s\n", d.name, s.Median, s.P25, s.P75, s.N, d.unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}
