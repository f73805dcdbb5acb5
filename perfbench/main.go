// Command perfbench is the repository's end-to-end benchmark. Every
// workload is an mlptrain run (dataset.Load → core.Fit → snapshot →
// top-3 readout) followed by an mlpserve-shaped tier (cold start →
// open-loop traffic over a loopback socket). It drives the system only
// through the public functions of dataset, core and serve, scores the
// fits against the synthetic ground truth with internal/eval, checks
// outputs (profile digests, served bytes), and prints one JSON result
// line last. README.md lists the workloads, metrics and layers.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fit-10k --seed 1 --seconds 25 --trace 0
//
// --trace 1 runs the same workload with spans recorded around every
// layer call and prints the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark input: the world, the fits that produce
// its snapshot, and the traffic its serve phase sends.
type workload struct {
	name          string
	users, cities int

	// workers and shards are the fit's Config.Workers and Config.Shards;
	// shards > 1 writes a sharded snapshot, served by the router tier.
	workers, shards int
	// fitReps workloads spend most of the run on repeated cold fits and
	// take setup_s and peak_live_heap_mb from them; the others fit minFits
	// times and take both from the serve phase.
	fitReps bool

	zipf        bool          // Zipf-skewed keys (else uniform)
	refRate     float64       // requests/s of the reference windows
	window      time.Duration // length of one reference window
	serveShare  float64       // share of --seconds spent in reference windows
	reloadEvery time.Duration // a POST /reload mid-way through every such stretch of the windows; 0 = none
}

var workloads = []*workload{
	{
		name: "fit-10k", users: 10000, cities: 600, workers: 1, fitReps: true,
		zipf: true, refRate: 8000, window: time.Second, serveShare: 0.3,
	},
	{
		name: "fit-2k-wide", users: 2000, cities: 3000, workers: 2, fitReps: true,
		zipf: true, refRate: 8000, window: time.Second, serveShare: 0.3,
	},
	{
		name: "serve-routed-reload", users: 10000, cities: 600, shards: 4,
		refRate: 2000, window: 4 * time.Second, serveShare: 0.5, reloadEvery: 4 * time.Second,
	},
}

// minFits and minWindows are the fewest fits and reference windows a
// run takes a median over, however short --seconds is.
const (
	minFits    = 3
	minWindows = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fit-child" {
		fitChildMain(os.Args[2:])
		return
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed: the world, the sampler and the traffic")
	seconds := flag.Float64("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// outDir holds fixtures while a run lasts and span files after it.
var outDir = filepath.Join(".bench_build", "perfbench")

func run(w *workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	world := filepath.Join(dir, "world")
	if err := makeWorld(world, w, seed); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// A figure with no samples (NaN) reads 0; JSON has no NaN.
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}

	// Fit phase: cold fits in child processes. Fit workloads repeat them
	// for what the serve phase leaves of the budget, less a tenth for the
	// tier's set-up and reloads; the routed workload fits minFits times.
	snap := filepath.Join(dir, "model.mlp")
	if w.shards > 1 {
		snap = filepath.Join(dir, "model.snapdir")
	}
	var fits []*fitReport
	fit := func() error {
		rep := len(fits)
		p := fitParams{
			Data: world, Snapshot: snap, TSV: filepath.Join(dir, "profiles.tsv"),
			Spans: filepath.Join(dir, fmt.Sprintf("fit-%d.spans", rep)),
			Seed:  seed, Workers: w.workers, Shards: w.shards,
			Trace:   traced && rep%2 == 0, // alternate, to measure the overhead
			Quality: rep == 0,
		}
		if err := os.RemoveAll(snap); err != nil {
			return err
		}
		f, err := runFit(p)
		if err != nil {
			return err
		}
		res.Attempted++
		fits = append(fits, f)
		if p.Trace {
			spans, err := readSpans(p.Spans)
			if err != nil {
				return err
			}
			for _, s := range spans {
				s.Trace = -int64(rep + 1) // one trace per fit process
				tr.add(s)
			}
		}
		fmt.Printf("fit %d: setup %.3fs train %.3fs cpu %.3fs steal %.3fs peak %.1fMB digest %s",
			rep, f.SetupS, f.TrainS, f.TrainCPU, f.StealS, f.PeakMB, f.Digest)
		if p.Quality {
			fmt.Printf(" home_acc100 %.4f multiloc_dr2 %.4f rel_acc100 %.4f", f.HomeACC, f.DR2, f.RelACC)
		}
		if p.Trace {
			// Each fit runs in a fresh process, so the first sweep's lazy
			// builds should cost the same in every traced repetition.
			fmt.Printf(" first_sweep %.3fs", f.Layers["core.fit.first_sweep_s"])
		}
		fmt.Println()
		return nil
	}
	fitsWanted, fitBudget := minFits, time.Duration(0)
	if traced {
		fitsWanted = minFits + 1
	}
	if w.fitReps {
		fitBudget = time.Duration((1 - w.serveShare - 0.1) * float64(budget))
	}
	for start := time.Now(); len(fits) < fitsWanted || time.Since(start) < fitBudget; {
		if err := fit(); err != nil {
			return nil, err
		}
	}

	// Serve phase: the workload's share of the budget in reference
	// windows.
	windows := max(minWindows, int(math.Round(w.serveShare*budget.Seconds()/w.window.Seconds())))
	sv, err := serveWorkload(w, world, snap, seed, windows, tr)
	if err != nil {
		return nil, err
	}

	// The first fit is scored (scoring the 3,000-city world takes longer
	// than fitting it); every fit of the seed must write the same TSV.
	for _, f := range fits[1:] {
		if f.Digest != fits[0].Digest {
			fmt.Println("check failed: fits of one seed wrote different profile TSVs")
			res.Correct = false
		}
	}
	// pick is the median of one figure over the fits; a traced run keeps
	// its traced and untraced fits apart.
	pick := func(get func(*fitReport) float64, tracedFits bool) float64 {
		var xs []float64
		for _, f := range fits {
			if !traced || (f.Layers != nil) == tracedFits {
				xs = append(xs, get(f))
			}
		}
		return median(xs)
	}
	train := func(f *fitReport) float64 { return f.TrainCPU }
	if !traced {
		set("train_cpu_s", "s", pick(train, false))
		set("home_acc100", "ratio", fits[0].HomeACC)
		set("multiloc_dr2", "ratio", fits[0].DR2)
		set("rel_acc100", "ratio", fits[0].RelACC)
		if w.fitReps {
			set("setup_s", "s", pick(func(f *fitReport) float64 { return f.SetupS }, false))
			set("peak_live_heap_mb", "MB", pick(func(f *fitReport) float64 { return f.PeakMB }, false))
		}
	} else {
		for name := range fits[0].Layers { // fit 0 is always traced
			set(name, layerUnits[name], pick(func(f *fitReport) float64 { return f.Layers[name] }, true))
		}
	}
	trainOverhead := pick(train, true) - pick(train, false)

	res.Attempted += sv.attempted
	res.Failed += sv.failed
	if sv.failed > 0 {
		res.Correct = false
	}
	if !traced {
		set("cpu_us_per_request", "us", sv.cpuPerReq)
		set("reload_cpu_s", "s", sv.reloadCPU)
		if !w.fitReps {
			set("setup_s", "s", sv.setup)
			set("peak_live_heap_mb", "MB", sv.peakMB)
		}
	} else {
		for k, v := range sv.layers {
			set(k, layerUnits[k], v)
		}
		if !w.fitReps {
			// The serve workloads' set-up loads the dataset in the tier.
			dataMB, err := pathMB(world)
			if err != nil {
				return nil, err
			}
			set("dataset.load_s", "s", sv.datasetLoad)
			set("dataset.mb_per_s", "MB/s", dataMB/sv.datasetLoad)
		}
		set("trace.overhead_train_cpu_s", "s", trainOverhead)
		set("trace.overhead_lookup_p50_ms", "ms", sv.overheadP50)
		spans := tr.snapshot()
		printSelfTimes(spans)
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), path)
		fmt.Printf("tracing overhead: train_cpu_s %+.4f s (traced minus untraced fits), lookup_p50_ms %+.4f ms (traced minus untraced windows)\n",
			trainOverhead, sv.overheadP50)
		for name, unit := range layerUnits {
			if _, ok := res.Metrics[name]; !ok {
				set(name, unit, 0)
			}
		}
	}
	printMetrics(res.Metrics)
	return res, nil
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"dataset.load_s": "s", "dataset.mb_per_s": "MB/s",
	"core.fit.sweep_s": "s", "core.fit.edge_s": "s", "core.fit.tweet_s": "s",
	"core.fit.rels_per_s": "1/s", "core.fit.first_sweep_s": "s", "core.fit.fold_s": "s",
	"core.fit.init_s": "s", "core.fit.em_s": "s", "core.fit.em_refits": "count",
	"core.fit.batch_reuse": "ratio", "core.fit.alloc_mb": "MB",
	"core.snapshot.save_s": "s", "core.snapshot.mb": "MB", "core.snapshot.load_s": "s",
	"core.predict.readout_s":      "s",
	"serve.server.handler_p50_us": "us", "serve.server.handler_p99_us": "us",
	"serve.server.cache_hit_ratio": "ratio", "serve.server.requests": "count", "serve.server.errors": "count",
	"serve.router.backend_p50_us": "us", "serve.router.overhead_p50_us": "us",
	"serve.router.backend_reload_s": "s", "serve.router.retries": "count", "serve.router.timeouts": "count",
	"loadgen.late_p99_ms": "ms", "loadgen.sent": "count",
	"loadgen.lookup_p50_ms": "ms", "loadgen.lookup_p99_ms": "ms",
	"trace.overhead_train_cpu_s": "s", "trace.overhead_lookup_p50_ms": "ms",
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
