package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/eval"
	"mlprofile/internal/synth"
)

// fitIterations and fitTopK are mlptrain's defaults.
const (
	fitIterations = 15
	fitTopK       = 3
)

// makeWorld generates the workload's world from seed, hides the labels
// of the held-out users (fold 0, as in mlpbench) and writes it with
// Dataset.Save. Every fit and server then reads it back with
// dataset.Load, as mlptrain and mlpserve do: a world fitted in memory
// is not the world on disk (see README.md, "Known defects"). Not timed.
func makeWorld(dir string, w *workload, seed int64) error {
	d, err := synth.Generate(synth.Config{Seed: seed, NumUsers: w.users, NumLocations: w.cities})
	if err != nil {
		return err
	}
	d.Corpus = *d.Corpus.WithUsers(d.Corpus.HideLabels(heldOut(len(d.Corpus.Users))))
	return d.Save(dir)
}

// heldOut is the fold whose labels the fit does not see and whose users
// the home and multi-location scores are computed on.
func heldOut(users int) []dataset.UserID { return dataset.KFold(users, 5, 99)[0] }

// fitParams is one cold fit: an mlptrain run in a fresh process.
type fitParams struct {
	Data, Snapshot, TSV, Spans string
	Seed                       int64
	Workers, Shards            int
	Trace, Quality             bool
}

// fitReport is what one fit process measured and computed.
type fitReport struct {
	SetupS   float64 `json:"setup_s"`
	TrainCPU float64 `json:"train_cpu_s"`
	// TrainS (wall time) and StealS (CPU time the hypervisor took from
	// the machine meanwhile) are logged, not reported.
	TrainS  float64 `json:"train_s"`
	StealS  float64 `json:"steal_s"`
	PeakMB  float64 `json:"peak_live_heap_mb"`
	HomeACC float64 `json:"home_acc100"`
	DR2     float64 `json:"multiloc_dr2"`
	RelACC  float64 `json:"rel_acc100"`
	Digest  string  `json:"digest"`
	// Layers holds the per-layer numbers; traced fits only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runFit runs one fit in a child process, so the gazetteer-keyed
// distance caches and the sparse pow rows start cold in every
// repetition, as they do in every mlptrain invocation, and so the heap
// peak is the fit's own.
func runFit(p fitParams) (*fitReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"fit-child",
		"-data", p.Data, "-snapshot", p.Snapshot, "-tsv", p.TSV, "-spans", p.Spans,
		"-seed", fmt.Sprint(p.Seed), "-workers", fmt.Sprint(p.Workers), "-shards", fmt.Sprint(p.Shards),
		"-trace=" + fmt.Sprint(p.Trace), "-quality=" + fmt.Sprint(p.Quality)}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("fit process: %w", err)
	}
	var rep fitReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("fit process output: %w", err)
	}
	return &rep, nil
}

// fitChildMain is the child side of runFit: it prints one fitReport as
// JSON on stdout.
func fitChildMain(args []string) {
	var p fitParams
	fs := flag.NewFlagSet("fit-child", flag.ExitOnError)
	fs.StringVar(&p.Data, "data", "", "dataset directory")
	fs.StringVar(&p.Snapshot, "snapshot", "", "snapshot path (a directory when -shards > 1)")
	fs.StringVar(&p.TSV, "tsv", "", "profile TSV path")
	fs.StringVar(&p.Spans, "spans", "", "span file path (traced fits)")
	fs.Int64Var(&p.Seed, "seed", 1, "sampler seed")
	fs.IntVar(&p.Workers, "workers", 1, "Gibbs workers")
	fs.IntVar(&p.Shards, "shards", 1, "Gibbs shards")
	fs.BoolVar(&p.Trace, "trace", false, "record spans")
	fs.BoolVar(&p.Quality, "quality", false, "score the fit against the ground truth")
	if err := fs.Parse(args); err != nil {
		fatalf("fit-child: %v", err)
	}
	rep, err := fitOnce(p)
	if err != nil {
		fatalf("fit-child: %v", err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fatalf("fit-child: %v", err)
	}
}

// fitOnce is one mlptrain run: dataset.Load (setup_s), then core.Fit,
// the snapshot write and the top-3 TSV readout (train_cpu_s), all under the
// heap-peak sampler; then, untimed and when asked, the quality scores.
func fitOnce(p fitParams) (*fitReport, error) {
	var tr *tracer
	if p.Trace {
		tr = newTracer()
	}
	peak := startHeapPeak()

	t0 := time.Now()
	d, err := dataset.Load(p.Data)
	if err != nil {
		peak.stop()
		return nil, err
	}
	t1 := time.Now()

	c := &d.Corpus
	cfg := core.Config{Seed: p.Seed, Iterations: fitIterations, GibbsEM: true, Workers: p.Workers, Shards: p.Shards}
	var it *iterTrace
	if tr != nil {
		it = &iterTrace{}
		cfg.OnIteration = it.observe
	}
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}

	t2 := time.Now()
	cpu2, steal2 := cpuNow(), stealNow()
	m, err := core.Fit(c, cfg)
	if err != nil {
		peak.stop()
		return nil, err
	}
	t3 := time.Now()
	if tr != nil {
		runtime.ReadMemStats(&ms1)
	}
	if p.Shards > 1 {
		err = m.SaveShardedSnapshot(p.Snapshot)
	} else {
		err = m.SaveSnapshot(p.Snapshot)
	}
	if err != nil {
		peak.stop()
		return nil, err
	}
	t4 := time.Now()
	digest, err := writeProfiles(p.TSV, m, c)
	if err != nil {
		peak.stop()
		return nil, err
	}
	t5 := time.Now()
	cpu5, steal5 := cpuNow(), stealNow()
	peakMB := peak.stop()

	rep := &fitReport{
		SetupS:   t1.Sub(t0).Seconds(),
		TrainS:   t5.Sub(t2).Seconds(),
		TrainCPU: cpu5 - cpu2,
		StealS:   steal5 - steal2,
		PeakMB:   peakMB,
		Digest:   digest,
	}
	if p.Quality {
		rep.HomeACC, rep.DR2, rep.RelACC = quality(d, m, heldOut(len(c.Users)))
	}

	if tr != nil {
		tr.record(1, 0, "dataset.load", t0, t1)
		fitID := tr.record(1, 0, "core.fit", t2, t3)
		layers := it.spans(tr, fitID, t2, m, len(c.Edges)+len(c.Tweets))
		tr.record(1, 0, "core.snapshot.save", t3, t4)
		tr.record(1, 0, "core.predict.readout", t4, t5)
		snapMB, err := pathMB(p.Snapshot)
		if err != nil {
			return nil, err
		}
		dataMB, err := pathMB(p.Data)
		if err != nil {
			return nil, err
		}
		layers["dataset.load_s"] = rep.SetupS
		layers["dataset.mb_per_s"] = dataMB / rep.SetupS
		layers["core.fit.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		layers["core.snapshot.save_s"] = t4.Sub(t3).Seconds()
		layers["core.snapshot.mb"] = snapMB
		layers["core.predict.readout_s"] = t5.Sub(t4).Seconds()
		rep.Layers = layers
		if err := writeSpans(p.Spans, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// iterTrace collects, from Config.OnIteration, each sweep's end time
// and cumulative phase seconds.
type iterTrace struct {
	ends   []time.Time
	phases []map[string]float64
}

func (it *iterTrace) observe(_ int, m *core.Model) {
	it.ends = append(it.ends, time.Now())
	it.phases = append(it.phases, m.PhaseSeconds())
}

// spans turns the iteration record into child spans of the core.fit
// span — init, one sweep per iteration (with its phases laid end to end
// inside it) and one EM refit per refit iteration — and returns the
// core.fit per-layer numbers. Phase seconds are cumulative durations,
// not intervals, so a sweep's span is the iteration's phase time and
// whatever remains of the iteration is the EM refit (or, on non-refit
// iterations, sweep coordination, kept in the sweep span).
func (it *iterTrace) spans(tr *tracer, fitID int64, fitStart time.Time, m *core.Model, rels int) map[string]float64 {
	emInterval := m.Config().EMInterval
	var sweeps, edges, tweets, folds, ems []float64
	var first float64
	prevEnd, prevPh := fitStart, map[string]float64{}
	for i, end := range it.ends {
		ph := it.phases[i]
		delta := map[string]float64{}
		var sweep float64
		for _, name := range []string{"edge", "tweet", "fold", "shard", "boundary"} {
			delta[name] = ph[name] - prevPh[name]
			sweep += delta[name]
		}
		iter := i + 1
		sweepStart := prevEnd
		if iter == 1 {
			sweepStart = end.Add(-secs(sweep))
			tr.record(1, fitID, "core.fit.init", fitStart, sweepStart)
		}
		sweepEnd := end
		refit := m.Config().GibbsEM && iter%emInterval == 0
		if refit {
			sweepEnd = sweepStart.Add(secs(sweep))
			ems = append(ems, end.Sub(sweepEnd).Seconds())
		}
		sweepID := tr.record(1, fitID, "core.fit.sweep", sweepStart, sweepEnd)
		at := sweepStart
		for _, name := range []string{"edge", "tweet", "fold", "shard", "boundary"} {
			if delta[name] > 0 {
				tr.record(1, sweepID, "core.fit."+name, at, at.Add(secs(delta[name])))
				at = at.Add(secs(delta[name]))
			}
		}
		if refit {
			tr.record(1, fitID, "core.fit.em", sweepEnd, end)
		}
		if iter == 1 {
			first = sweepEnd.Sub(sweepStart).Seconds()
		} else {
			sweeps = append(sweeps, sweepEnd.Sub(sweepStart).Seconds())
			edges = append(edges, delta["edge"])
			tweets = append(tweets, delta["tweet"])
			folds = append(folds, delta["fold"])
		}
		prevEnd, prevPh = end, ph
	}
	bs := m.TweetBatchStats()
	reuse := 0.0
	if bs.Built+bs.Hits > 0 {
		reuse = float64(bs.Hits) / float64(bs.Built+bs.Hits)
	}
	sweep := median(sweeps)
	initS := 0.0
	if len(it.ends) > 0 {
		initS = it.ends[0].Sub(fitStart).Seconds() - first
	}
	return map[string]float64{
		"core.fit.init_s":        initS,
		"core.fit.first_sweep_s": first,
		"core.fit.sweep_s":       sweep,
		"core.fit.edge_s":        median(edges),
		"core.fit.tweet_s":       median(tweets),
		"core.fit.fold_s":        median(folds),
		"core.fit.rels_per_s":    float64(rels) / sweep,
		"core.fit.em_s":          zeroNaN(median(ems)),
		"core.fit.em_refits":     float64(len(ems)),
		"core.fit.batch_reuse":   reuse,
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// writeProfiles writes the top-3 profile TSV exactly as mlptrain does
// and returns the SHA-256 of its bytes.
func writeProfiles(path string, m *core.Model, c *dataset.Corpus) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	for _, u := range c.Users {
		prof := m.Profile(u.ID)
		if len(prof) > fitTopK {
			prof = prof[:fitTopK]
		}
		fmt.Fprintf(w, "%s\t%s", u.Handle, c.Gaz.City(m.Home(u.ID)).Key())
		for _, wl := range prof {
			fmt.Fprintf(w, "\t%s:%.3f", c.Gaz.City(wl.City).Key(), wl.Weight)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// quality scores a fit against the synthetic ground truth with
// internal/eval, as the experiments runner does: home ACC@100 and DR@2
// over the held-out users, and MAP edge-explanation ACC@100 over the
// relationship-explanation edges.
func quality(d *dataset.Dataset, m *core.Model, test []dataset.UserID) (home, dr2, rel float64) {
	gaz, truth := d.Corpus.Gaz, d.Truth
	var he eval.HomeEval
	var me eval.MultiLocEval
	for _, u := range test {
		top := m.TopK(u, 2)
		if len(top) == 0 {
			he.AddMissing()
		} else {
			he.Add(gaz.Distance(top[0], truth.Home(u)))
		}
		if locs := truth.TrueCities(u); len(locs) > 1 {
			me.Add(gaz, top, locs, 100)
		}
	}
	var re eval.RelEval
	for s := range d.Corpus.Edges {
		if !relEligible(d, s) {
			continue
		}
		et := truth.EdgeTruths[s]
		exp, ok := m.MAPExplainEdge(s)
		switch {
		case !ok:
			re.AddMissing()
		case et.Noise && exp.Noisy:
			re.Add(0, 0)
		case et.Noise:
			re.AddMissing()
		default:
			re.Add(gaz.Distance(exp.X, et.X), gaz.Distance(exp.Y, et.Y))
		}
	}
	return he.ACC(100), me.DR(), re.ACC(100)
}

// relEligible selects the relationship-explanation edges exactly as the
// experiments runner's unexported relEligible does: edges touching a
// multi-location user whose true assignments lie within 100 miles of
// each other, plus that user's noise edges.
func relEligible(d *dataset.Dataset, s int) bool {
	e := d.Corpus.Edges[s]
	if len(d.Truth.Profiles[e.From]) < 2 && len(d.Truth.Profiles[e.To]) < 2 {
		return false
	}
	et := d.Truth.EdgeTruths[s]
	return et.Noise || d.Corpus.Gaz.Distance(et.X, et.Y) <= 100
}

// pathMB is the size of a file, or of every file under a directory, in
// MiB.
func pathMB(path string) (float64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			total += fi.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
