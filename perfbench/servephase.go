package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// maxSamples caps the responses kept for the byte checks; sampleEvery
// keeps every such request of each phase's schedule; idleReloads is the
// number of reloads timed on the idle tier; setupReps is the number of
// cold starts timed for setup_s when the fits do not give it.
const (
	maxSamples  = 4000
	sampleEvery = 37
	idleReloads = 5
	setupReps   = 3
)

// serveResult is what the serve phase measured.
type serveResult struct {
	setup, peakMB       float64
	p50, p99, cpuPerReq float64
	reloadCPU           float64
	overheadP50         float64
	datasetLoad         float64
	layers              map[string]float64
	attempted, failed   int64
}

// serveWorkload starts the tier (cold, several times on the routed
// workload), warms it, measures latency and CPU per request over
// reference windows at the workload's reference rate, times reloads,
// and byte-checks a sample of the responses.
func serveWorkload(w *workload, world, snap string, seed int64, windows int, tr *tracer) (*serveResult, error) {
	sr := &serveResult{layers: map[string]float64{}}
	reps := 1
	if !w.fitReps {
		reps = setupReps
	}
	var setups, loads, snapLoads []float64
	var t *tier
	for i := 0; i < reps; i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
			t = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if t, err = startTier(world, snap, w.shards > 1, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, t.loadS)
		snapLoads = append(snapLoads, t.snapS)
	}
	defer t.stop()
	sr.setup = median(setups)
	sr.datasetLoad = median(loads)
	fmt.Printf("serve setup: %v s (dataset.Load %.3f s, snapshot %.3f s)\n", setups, sr.datasetLoad, median(snapLoads))

	c := t.corpus
	kg := newKeyGen(seed, w, len(c.Users), len(c.Edges), c.Gaz.Len(), c.Venues.Len())
	g, err := newLoadgen(t.addr, conns, tr)
	if err != nil {
		return nil, err
	}
	defer g.close()
	var samples []sample
	phase := func(rate float64, d, reloadEvery time.Duration) phaseStats {
		n := int(rate * d.Seconds())
		reqs := kg.schedule(n, rate, reloadEvery)
		out := g.run(reqs, rate, func(i int) bool { return i%sampleEvery == 0 })
		for i := 0; i < n; i += sampleEvery {
			if o := &out[i]; !o.failed() && !o.reload && len(samples) < maxSamples {
				samples = append(samples, sample{reqs[i], o.body})
			}
		}
		ps := summarize(out)
		sr.attempted += int64(n)
		sr.failed += int64(ps.failed)
		return ps
	}
	setTracing := func(on bool) {
		if tr != nil {
			tr.on.Store(on)
		}
	}

	// Collect the set-up garbage now rather than in the first windows.
	runtime.GC()
	peak := startHeapPeak()
	setTracing(false)
	phase(w.refRate, w.window, w.reloadEvery) // warm-up: fills the LRU, not reported

	// Reference windows. Latency and CPU per request pool every untraced
	// window: a GC cycle or a burst of load from elsewhere lands in one
	// window and not the next, so per-window figures are lumpier than the
	// pool. A traced run alternates traced and untraced windows, and the
	// difference of their p50s is the tracing overhead.
	var reads, tracedReads, p99s, late []float64
	var cpu float64
	var served int
	for win := 0; win < windows; win++ {
		on := tr != nil && win%2 == 0
		setTracing(on)
		c0 := cpuNow()
		ps := phase(w.refRate, w.window, w.reloadEvery)
		c1 := cpuNow()
		setTracing(false)
		if on {
			tracedReads = append(tracedReads, ps.reads...)
		} else {
			reads = append(reads, ps.reads...)
			p99s = append(p99s, percentile(ps.reads, 0.99))
			cpu += c1 - c0
			served += len(ps.reads) + len(ps.reloads)
		}
		late = append(late, ps.late...)
		fmt.Printf("window %d at %.0f/s: p50 %.4f ms p99 %.3f ms cpu %.2f us/req generator late p99 %.3f ms failed %d traced=%v\n",
			win, w.refRate, percentile(ps.reads, 0.5), percentile(ps.reads, 0.99), (c1-c0)*1e6/float64(len(ps.reads)+len(ps.reloads)),
			percentile(ps.late, 0.99), ps.failed, on)
	}
	// reload_cpu_s is taken on the idle tier, where the process's CPU
	// time is the reload's own.
	var reloads, reloadCPUs []float64
	for i := 0; i < idleReloads; i++ {
		c0, t0 := cpuNow(), time.Now()
		status, body, err := g.conns[0].do(&request{method: http.MethodPost, path: "/reload"}, "")
		took, cpu := time.Since(t0).Seconds(), cpuNow()-c0
		sr.attempted++
		if err != nil || status != http.StatusOK {
			fmt.Printf("reload failed: status %d %v %s\n", status, err, body)
			sr.failed++
			continue
		}
		reloads = append(reloads, took)
		reloadCPUs = append(reloadCPUs, cpu)
	}
	sr.peakMB = peak.stop()
	sr.p50, sr.p99, sr.cpuPerReq = percentile(reads, 0.5), median(p99s), cpu*1e6/float64(served)
	sr.overheadP50 = zeroNaN(percentile(tracedReads, 0.5) - sr.p50)
	if latep99 := percentile(late, 0.99); latep99 > 0.25*sr.p99 {
		fmt.Printf("FLAG: generator lateness p99 %.3f ms is %.0f%% of lookup p99 %.3f ms\n", latep99, 100*latep99/sr.p99, sr.p99)
	}
	sr.reloadCPU = median(reloadCPUs)
	fmt.Printf("idle reloads: %v s, CPU %v s\n", reloads, reloadCPUs)

	mismatches, err := checkBytes(world, snap, samples)
	if err != nil {
		return nil, err
	}
	sr.attempted += int64(len(samples))
	sr.failed += int64(mismatches)
	fmt.Printf("serve: %d requests, %d failed, %d/%d sampled responses byte-identical to the in-process server\n",
		sr.attempted, sr.failed, len(samples)-mismatches, len(samples))

	if tr != nil {
		if err := serveLayers(sr, t, tr, late, snapLoads, w.shards > 1); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// serveLayers derives the serve-side per-layer metrics from the spans
// of the traced windows and from the servers' and router's counters.
func serveLayers(sr *serveResult, t *tier, tr *tracer, late, snapLoads []float64, routed bool) error {
	L := sr.layers
	spans := tr.snapshot()
	byTrace := map[int64][]span{}
	for _, s := range spans {
		if s.Trace > 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	var handler, backendReload, overhead []float64
	for _, ss := range byTrace {
		var client, router *span
		var backends []span
		for i := range ss {
			switch s := &ss[i]; {
			case strings.HasPrefix(s.Name, "loadgen "):
				client = s
			case strings.HasPrefix(s.Name, "serve.router "):
				router = s
			case strings.HasPrefix(s.Name, "serve.server "):
				backends = append(backends, *s)
			}
		}
		for _, b := range backends {
			if strings.HasSuffix(b.Name, " /reload") {
				backendReload = append(backendReload, b.dur().Seconds())
			} else {
				handler = append(handler, float64(b.dur())/1e3)
			}
		}
		if routed && client != nil && router != nil && len(backends) == 1 && !strings.HasSuffix(client.Name, " /reload") {
			overhead = append(overhead, float64(client.dur()-backends[0].dur())/1e3)
		}
	}
	L["core.snapshot.load_s"] = median(snapLoads)
	L["serve.server.handler_p50_us"] = percentile(handler, 0.5)
	L["serve.server.handler_p99_us"] = percentile(handler, 0.99)
	st, err := t.backendStats()
	if err != nil {
		return err
	}
	L["serve.server.cache_hit_ratio"] = float64(st.CacheHits) / math.Max(1, float64(st.CacheHits+st.CacheMisses))
	L["serve.server.requests"] = float64(st.Requests)
	L["serve.server.errors"] = float64(st.Errors)
	L["loadgen.late_p99_ms"] = percentile(late, 0.99)
	L["loadgen.lookup_p50_ms"] = sr.p50
	L["loadgen.lookup_p99_ms"] = sr.p99
	L["loadgen.sent"] = float64(sr.attempted)
	if routed {
		var rs serverStats
		if err := t.get("/stats", &rs); err != nil {
			return err
		}
		L["serve.router.backend_p50_us"] = percentile(handler, 0.5)
		L["serve.router.overhead_p50_us"] = percentile(overhead, 0.5)
		L["serve.router.backend_reload_s"] = median(backendReload)
		L["serve.router.retries"] = float64(rs.Retries)
		L["serve.router.timeouts"] = float64(rs.Timeouts)
	}
	return nil
}
