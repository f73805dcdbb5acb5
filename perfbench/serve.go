package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/serve"
)

// conns is the generator's connection count, no more than the CPUs of
// the 2-CPU machines the benchmark was sized on.
const conns = 2

// tier is one running mlpserve-shaped server (or shard router) on a
// loopback listener.
type tier struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
	corpus *dataset.Corpus
	// backends are the in-process servers whose counters the traced
	// run reads; empty when the tier hides them (NewShardRouter).
	backends []*serve.Server
	// loadS and snapS time dataset.Load and the snapshot load; behind
	// NewShardRouter the latter includes building the router.
	loadS, snapS float64
}

// startTier loads the world and the snapshot, builds the server or
// router as cmd/mlpserve does, and returns once /healthz answers 200
// over the socket. A sharded snapshot gets the -router tier: through
// serve.NewShardRouter untraced, and assembled by hand from the same
// parts when traced, so the backends can be wrapped.
func startTier(world, snap string, sharded bool, tr *tracer) (*tier, error) {
	t0 := time.Now()
	d, err := dataset.Load(world)
	if err != nil {
		return nil, err
	}
	t := &tier{corpus: &d.Corpus, loadS: time.Since(t0).Seconds()}
	t1 := time.Now()
	cfg := serve.Config{Snapshot: snap}
	var h http.Handler
	switch {
	case sharded && tr == nil:
		rt, err := serve.NewShardRouter(&d.Corpus, snap, cfg)
		if err != nil {
			return nil, err
		}
		h = rt.Handler()
		t.snapS = time.Since(t1).Seconds()
	case sharded:
		n, err := core.SnapshotShardCount(snap)
		if err != nil {
			return nil, err
		}
		backends := make([]http.Handler, n)
		for s := 0; s < n; s++ {
			ts := time.Now()
			m, err := core.LoadSnapshotShard(&d.Corpus, snap, s)
			if err != nil {
				return nil, fmt.Errorf("shard backend %d: %w", s, err)
			}
			t.snapS += time.Since(ts).Seconds()
			scfg := cfg
			scfg.Shard, scfg.Shards = s, n
			srv := serve.NewServer(m, &d.Corpus, scfg)
			t.backends = append(t.backends, srv)
			backends[s] = tr.wrap("serve.server", srv.Handler())
		}
		h = tr.wrap("serve.router", serve.NewRouter(&d.Corpus, backends, cfg).Handler())
	default:
		m, err := core.LoadSnapshot(&d.Corpus, snap)
		if err != nil {
			return nil, err
		}
		t.snapS = time.Since(t1).Seconds()
		srv := serve.NewServer(m, &d.Corpus, cfg)
		t.backends = []*serve.Server{srv}
		h = srv.Handler()
		if tr != nil {
			h = tr.wrap("serve.server", h)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	t.done = make(chan error, 1)
	go func() { t.done <- serve.ListenAndServe(ctx, "127.0.0.1:0", ready, h) }()
	addr, ok := <-ready
	if !ok {
		cancel()
		return nil, fmt.Errorf("listen: %w", <-t.done)
	}
	t.addr, t.cancel = addr, cancel
	if err := t.waitHealthy(); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *tier) waitHealthy() error {
	c, err := dial(t.addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do(&request{method: http.MethodGet, path: "/healthz"}, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/healthz: status %d: %s", status, body)
	}
	return nil
}

// stop shuts the listener down and waits for it to drain.
func (t *tier) stop() error {
	t.cancel()
	return <-t.done
}

// get fetches path from the tier over a fresh connection.
func (t *tier) get(path string, v any) error {
	c, err := dial(t.addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do(&request{method: http.MethodGet, path: path}, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// serverStats is the part of a server's or router's /stats the
// benchmark reads.
type serverStats struct {
	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
}

// backendStats sums /stats over the tier's in-process servers.
func (t *tier) backendStats() (serverStats, error) {
	var sum serverStats
	for _, srv := range t.backends {
		status, body := serve.Do(srv.Handler(), http.MethodGet, "/stats", nil)
		if status != http.StatusOK {
			return sum, fmt.Errorf("backend /stats: status %d", status)
		}
		var st serverStats
		if err := json.Unmarshal(body, &st); err != nil {
			return sum, err
		}
		sum.Requests += st.Requests
		sum.Errors += st.Errors
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
	}
	return sum, nil
}

// sample is one served response kept for the byte checks.
type sample struct {
	req  request
	body []byte
}

// checkBytes replays every sampled request against an in-process server
// over the same snapshot — serve.Oneshot for reads, serve.Do for bulk
// posts — and counts responses whose bytes differ. For the routed tier
// that reference is the unrouted server over the whole snapshot
// directory, so routing must add nothing to the bytes either.
func checkBytes(world, snap string, samples []sample) (mismatches int, err error) {
	d, err := dataset.Load(world)
	if err != nil {
		return 0, err
	}
	m, err := core.LoadSnapshot(&d.Corpus, snap)
	if err != nil {
		return 0, err
	}
	h := serve.NewServer(m, &d.Corpus, serve.Config{}).Handler()
	for _, s := range samples {
		var status int
		var want []byte
		if s.req.method == http.MethodGet {
			status, want, err = serve.Oneshot(h, s.req.path)
			if err != nil {
				return 0, err
			}
		} else {
			status, want = serve.Do(h, s.req.method, s.req.path, s.req.body)
		}
		if status != http.StatusOK || !bytes.Equal(want, s.body) {
			if mismatches == 0 {
				fmt.Printf("byte check: %s %s differs from the in-process server\n", s.req.method, s.req.path)
			}
			mismatches++
		}
	}
	return mismatches, nil
}
