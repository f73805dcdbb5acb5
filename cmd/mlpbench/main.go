// Command mlpbench runs the sampler benchmark matrix — the production
// sampler across worker counts, plus the shard axis — on a synthetic
// world and writes the results as JSON, so the performance trajectory
// is tracked as a checked-in artifact from PR to PR instead of
// scrollback.
//
// Every cell also records a per-phase breakdown (edge / tweet / fold /
// shard / boundary seconds per sweep, from Model.PhaseSeconds), and the
// measured fits run under pprof phase labels, so a -cpuprofile capture
// attributes samples to sweep phases by name.
//
// Usage:
//
//	mlpbench                                  # bench world, BENCH_sampler.json
//	mlpbench -users 2000 -sweeps 10 -out BENCH_big.json
//	mlpbench -count 5                         # median of 5 timings per cell
//	mlpbench -compare BENCH_sampler.json      # also print deltas vs a prior run
//	mlpbench -trend a.json b.json c.json      # per-cell trajectory across runs
//	mlpbench -cpuprofile cpu.prof             # profile the measured fits
//
// Each matrix cell is measured as two fits — one initialization-only and
// one with -sweeps Gibbs iterations — so the reported per-sweep time
// excludes the world-dependent setup (candidate construction, distance
// table build, power-law init). With -count > 1 the cell is measured
// that many times and the median per-sweep time is reported, which is
// what CI uses to keep the delta report from flapping on noisy runners.
//
// -compare loads a previously written report and prints the per-config
// sweep-time deltas (matched by cell name; cells present on only one
// side are flagged). It never fails the run — the CI leg that invokes it
// is informational, keeping the perf trajectory visible on every PR
// without making noisy runners a gate.
//
// -trend skips benchmarking entirely: it loads the report files given as
// positional arguments (oldest first) and prints each cell's sweep-time
// trajectory across all of them — the multi-run view -compare's pairwise
// diff cannot give.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// Name segments and field values of the retired edge-kernel, DistTable,
// PsiStore, FusedDraw, TweetBatch and Layout axes, held at the one
// setting left, so cell names keep matching the rows of committed
// reports.
const (
	kernelCell = "pervar"
	distCell   = "table"
	psiCell    = "venue"
	drawCell   = "fused"
	batchCell  = "author"
	layoutCell = "flat"
)

// Result is one benchmark matrix cell.
type Result struct {
	Name         string             `json:"name"`
	Kernel       string             `json:"kernel"`
	Dist         string             `json:"dist"`
	Psi          string             `json:"psi"`
	Draw         string             `json:"draw"`
	Batch        string             `json:"batch,omitempty"`
	Layout       string             `json:"layout,omitempty"`
	Workers      int                `json:"workers"`
	Shards       int                `json:"shards,omitempty"`
	Stale        bool               `json:"stale,omitempty"`
	InitSeconds  float64            `json:"init_seconds"`
	SweepSeconds float64            `json:"sweep_seconds"`
	RelsPerSec   float64            `json:"rels_per_sec"`
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Users      int      `json:"users"`
	Locations  int      `json:"locations"`
	Edges      int      `json:"edges"`
	Tweets     int      `json:"tweets"`
	Sweeps     int      `json:"sweeps"`
	Count      int      `json:"count,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlpbench: ")

	var (
		users      = flag.Int("users", 700, "world size in users")
		locations  = flag.Int("locations", 200, "gazetteer size")
		seed       = flag.Int64("seed", 5, "world + sampler seed")
		sweeps     = flag.Int("sweeps", 5, "measured Gibbs sweeps per cell")
		count      = flag.Int("count", 1, "timings per cell; the median is reported")
		out        = flag.String("out", "BENCH_sampler.json", "output JSON path")
		compare    = flag.String("compare", "", "prior report JSON to diff the fresh run against")
		trend      = flag.Bool("trend", false, "print per-cell trajectories across the report files given as arguments (no benchmarking)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured fits")
		memprofile = flag.String("memprofile", "", "write a heap profile after the run")
	)
	flag.Parse()

	if *trend {
		if flag.NArg() < 2 {
			log.Fatal("-trend needs at least two report files (oldest first)")
		}
		if err := printTrend(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *count < 1 {
		*count = 1
	}

	d, err := synth.Generate(synth.Config{Seed: *seed, NumUsers: *users, NumLocations: *locations})
	if err != nil {
		log.Fatal(err)
	}
	test := dataset.KFold(len(d.Corpus.Users), 5, 99)[0]
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	rels := len(c.Edges) + len(c.Tweets)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("mlpbench: closing cpu profile %s: %v", *cpuprofile, err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuProfiling = true
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Users:      *users,
		Locations:  *locations,
		Edges:      len(c.Edges),
		Tweets:     len(c.Tweets),
		Sweeps:     *sweeps,
		Count:      *count,
	}

	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	cellPrefix := fmt.Sprintf("kernel=%s/dist=%s/psi=%s/draw=%s/batch=%s/layout=%s",
		kernelCell, distCell, psiCell, drawCell, batchCell, layoutCell)
	for _, workers := range workerCounts {
		cfg := core.Config{Seed: *seed, NoiseBurnIn: 1, Workers: workers}
		r := newResult(fmt.Sprintf("%s/workers=%d", cellPrefix, workers))
		r.Workers = workers
		r.measure(c, cfg, *sweeps, *count, rels)
		rep.Results = append(rep.Results, r)
	}

	// Shard axis: the sharded pipeline across shard counts, plus the
	// stale boundary protocol at the widest count. Shards=1 is by
	// construction the single-chain sampler already measured above, so
	// the axis starts at 2.
	for _, sc := range []struct {
		shards int
		stale  bool
	}{{2, false}, {4, false}, {4, true}} {
		cfg := core.Config{Seed: *seed, NoiseBurnIn: 1, Shards: sc.shards, StaleBoundary: sc.stale}
		name := fmt.Sprintf("%s/shards=%d", cellPrefix, sc.shards)
		if sc.stale {
			name += "/stale"
		}
		r := newResult(name)
		r.Shards = sc.shards
		r.Stale = sc.stale
		r.measure(c, cfg, *sweeps, *count, rels)
		rep.Results = append(rep.Results, r)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	log.Printf("wrote %s", *out)

	if *compare != "" {
		compareReports(*compare, &rep)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("mlpbench: closing mem profile %s: %v", *memprofile, err)
			}
		}()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// cpuProfiling records that a CPU profile is in flight, so fatal exits
// can flush it: log.Fatal os.Exits past the deferred StopCPUProfile,
// which would otherwise leave a truncated, unusable profile.
var cpuProfiling bool

func fatal(v ...any) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	log.Fatal(v...)
}

// newResult starts a cell's result with its name and mode fields.
func newResult(name string) Result {
	return Result{Name: name, Kernel: kernelCell, Dist: distCell, Psi: psiCell,
		Draw: drawCell, Batch: batchCell, Layout: layoutCell}
}

// measure times cfg into the result (see measureCell) and logs the cell.
func (r *Result) measure(c *dataset.Corpus, cfg core.Config, sweeps, count, rels int) {
	r.InitSeconds, r.SweepSeconds, r.PhaseSeconds = measureCell(c, cfg, sweeps, count)
	r.RelsPerSec = float64(rels) / r.SweepSeconds
	logCell(r)
}

// measureCell times one config as two fits — one initialization-only and
// one with sweeps Gibbs iterations — repeated count times. Each
// measurement is the (tN - t1)/sweeps pair, so per-run init jitter
// cancels inside the pair, and the median discards the cross-run
// outliers noisy runners produce. The per-phase breakdown comes from the
// same pair: (phaseN - phase1)/sweeps per phase name, median per key.
func measureCell(c *dataset.Corpus, cfg core.Config, sweeps, count int) (initS, perSweep float64, phases map[string]float64) {
	timeFit := func(iters int) (float64, map[string]float64) {
		cfg.Iterations = iters
		start := time.Now()
		m, err := core.Fit(c, cfg)
		if err != nil {
			fatal(err)
		}
		return time.Since(start).Seconds(), m.PhaseSeconds()
	}
	inits := make([]float64, 0, count)
	perSweeps := make([]float64, 0, count)
	phaseRuns := map[string][]float64{}
	for r := 0; r < count; r++ {
		t1, p1 := timeFit(1)
		tN, pN := timeFit(1 + sweeps)
		ps := (tN - t1) / float64(sweeps)
		if ps <= 0 {
			ps = t1 // degenerate tiny worlds; fall back to the full fit
		}
		inits = append(inits, t1)
		perSweeps = append(perSweeps, ps)
		for k, v := range pN {
			d := (v - p1[k]) / float64(sweeps)
			if d < 0 {
				d = 0
			}
			phaseRuns[k] = append(phaseRuns[k], d)
		}
	}
	phases = make(map[string]float64, len(phaseRuns))
	for k, vs := range phaseRuns {
		phases[k] = median(vs)
	}
	return median(inits), median(perSweeps), phases
}

// logCell prints one measured cell, with the per-phase split appended in
// a stable order.
func logCell(r *Result) {
	keys := make([]string, 0, len(r.PhaseSeconds))
	for k := range r.PhaseSeconds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	detail := ""
	for _, k := range keys {
		detail += fmt.Sprintf(" %s %.2fms", k, r.PhaseSeconds[k]*1e3)
	}
	if detail != "" {
		detail = "  [" + detail[1:] + "]"
	}
	log.Printf("%-78s sweep %8.2fms  %10.0f rels/s%s", r.Name, r.SweepSeconds*1e3, r.RelsPerSec, detail)
}

// median returns the middle value (lower middle for even counts) without
// disturbing the input order.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// loadReport reads one mlpbench JSON document.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports diffs the fresh run against a prior report, matching
// cells by name. Informational only: deltas on shared cells, plus cells
// that exist on one side only (the matrix grows as knobs are added, so a
// one-sided cell is expected right after a new dimension lands).
func compareReports(path string, fresh *Report) {
	old, err := loadReport(path)
	if err != nil {
		log.Printf("compare: %v (skipping diff)", err)
		return
	}
	// SweepSeconds is per-sweep normalized, so a different -sweeps count
	// is directly comparable; only a different world invalidates deltas.
	// The seed isn't serialized, but the realized edge/tweet counts pin
	// the world as tightly for comparison purposes.
	if old.Users != fresh.Users || old.Locations != fresh.Locations ||
		old.Edges != fresh.Edges || old.Tweets != fresh.Tweets {
		log.Printf("compare: world differs (old %du/%dl/%de/%dt vs new %du/%dl/%de/%dt) — deltas are indicative only",
			old.Users, old.Locations, old.Edges, old.Tweets,
			fresh.Users, fresh.Locations, fresh.Edges, fresh.Tweets)
	}
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	log.Printf("compare vs %s (generated %s, %s):", path, old.Generated, old.GoVersion)
	for _, r := range fresh.Results {
		o, ok := oldByName[r.Name]
		note := ""
		if ok {
			delete(oldByName, r.Name)
		}
		if !ok {
			// A report from before the batch/layout axis carries this
			// cell under its shorter pre-axis name. That run had no
			// batching or interleaved layout; the fresh cell continues
			// its trajectory.
			legacy := strings.Replace(r.Name, "/batch=author/layout=flat", "", 1)
			if legacy != r.Name {
				if o, ok = oldByName[legacy]; ok {
					delete(oldByName, legacy)
					note = "  (vs pre-batch-axis default)"
				}
			}
		}
		if !ok {
			// Two axes back: a report from before the draw axis carries
			// the cell under the still-shorter form. That run's draw
			// pipeline was the then-default; the fresh default-config
			// trajectory continues there (labeled, since the two sides
			// ran different draw code).
			legacy := fmt.Sprintf("kernel=%s/dist=%s/psi=%s/workers=%d", r.Kernel, r.Dist, r.Psi, r.Workers)
			if o, ok = oldByName[legacy]; ok {
				delete(oldByName, legacy)
				note = "  (vs pre-draw-axis default)"
			}
		}
		if !ok {
			log.Printf("  %-60s %8.2fms  (new cell)", r.Name, r.SweepSeconds*1e3)
			continue
		}
		log.Printf("  %-60s %8.2fms -> %8.2fms  (%+.1f%%, %0.2fx)%s",
			r.Name, o.SweepSeconds*1e3, r.SweepSeconds*1e3,
			100*(r.SweepSeconds-o.SweepSeconds)/o.SweepSeconds,
			o.SweepSeconds/r.SweepSeconds, note)
	}
	for name, o := range oldByName {
		log.Printf("  %-60s %8.2fms  (cell gone from matrix)", name, o.SweepSeconds*1e3)
	}
}

// printTrend loads the given reports (oldest first) and prints every
// cell's sweep-time trajectory across all of them.
func printTrend(paths []string) error {
	reps := make([]*Report, 0, len(paths))
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	// Cells in first-appearance order across the run sequence, so cells
	// added by a new matrix axis list after the long-lived ones.
	var order []string
	seen := map[string]bool{}
	for _, r := range reps {
		for _, c := range r.Results {
			if !seen[c.Name] {
				seen[c.Name] = true
				order = append(order, c.Name)
			}
		}
	}
	log.Printf("trend across %d runs:", len(reps))
	for i, r := range reps {
		log.Printf("  run %d: %s (generated %s, %s)", i+1, paths[i], r.Generated, r.GoVersion)
	}
	for _, name := range order {
		line := fmt.Sprintf("  %-60s", name)
		var first, last float64
		haveFirst := false
		for _, r := range reps {
			found := false
			for _, c := range r.Results {
				if c.Name == name {
					line += fmt.Sprintf(" %8.2fms", c.SweepSeconds*1e3)
					if !haveFirst {
						first, haveFirst = c.SweepSeconds, true
					}
					last = c.SweepSeconds
					found = true
					break
				}
			}
			if !found {
				line += fmt.Sprintf(" %9s", "-")
			}
		}
		if haveFirst && last > 0 {
			line += fmt.Sprintf("  (%0.2fx first→last)", first/last)
		}
		log.Print(line)
	}
	return nil
}
