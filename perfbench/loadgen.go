package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled API call.
type request struct {
	method, path string
	body         []byte
	reload       bool
}

// outcome is what happened to one scheduled request. Times are offsets
// from the phase start; due is when the schedule said to send it.
type outcome struct {
	due, sent, done time.Duration
	status          int
	err             error
	reload          bool
	// slept marks a request its sender was early for and waited on; its
	// lateness is the generator's own timer error. A request sent
	// without waiting was late because both connections were busy.
	slept bool
	body  []byte // kept for sampled requests only
}

// failed reports a request that got no answer or an unexpected status.
func (o *outcome) failed() bool { return o.err != nil || o.status != http.StatusOK }

// keyGen draws requests for one workload's traffic mix from the seed.
type keyGen struct {
	rng                          *rand.Rand
	zipf                         *rand.Zipf
	perm                         []int
	users, edges, cities, venues int
	routed                       bool
}

// bulkSize is the number of users in one POST /profiles request.
const bulkSize = 16

func newKeyGen(seed int64, w *workload, users, edges, cities, venues int) *keyGen {
	rng := rand.New(rand.NewSource(seed))
	k := &keyGen{rng: rng, users: users, edges: edges, cities: cities, venues: venues, routed: w.shards > 1}
	if w.zipf {
		// Hot users are a seeded random subset, not the low IDs.
		k.zipf = rand.NewZipf(rng, 1.1, 1, uint64(users-1))
		k.perm = rng.Perm(users)
	}
	return k
}

func (k *keyGen) user() int {
	if k.zipf != nil {
		return k.perm[k.zipf.Uint64()]
	}
	return k.rng.Intn(k.users)
}

// next draws one read. The single-server mix is 92% /profile?top=3, 3%
// bulk /profiles, 3% edge explanations and 2% venue probabilities; the
// routed tier answers profile lookups only (partial backends hold no
// edge or venue state), so its mix is 95% /profile and 5% bulk.
func (k *keyGen) next() request {
	x := k.rng.Float64()
	bulkFrom := 0.92
	if k.routed {
		bulkFrom = 0.95
	}
	switch {
	case x < bulkFrom:
		return request{method: http.MethodGet, path: "/profile/" + strconv.Itoa(k.user()) + "?top=3"}
	case k.routed || x < 0.95:
		var b strings.Builder
		b.WriteString(`{"users":[`)
		for i := 0; i < bulkSize; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(k.user()))
		}
		b.WriteString(`],"top":3}`)
		return request{method: http.MethodPost, path: "/profiles", body: []byte(b.String())}
	case x < 0.98:
		return request{method: http.MethodGet, path: fmt.Sprintf("/edge/%d/explanation", k.rng.Intn(k.edges))}
	default:
		return request{method: http.MethodGet, path: fmt.Sprintf("/venue-prob?city=%d&venue=%d", k.rng.Intn(k.cities), k.rng.Intn(k.venues))}
	}
}

// schedule draws n requests and, when reloadEvery > 0, replaces the
// request due at reloadEvery/2 + j·reloadEvery with a POST /reload, so
// every window as long as reloadEvery holds exactly one reload.
func (k *keyGen) schedule(n int, rate float64, reloadEvery time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = k.next()
	}
	if reloadEvery > 0 {
		for at := reloadEvery / 2; ; at += reloadEvery {
			i := int(at.Seconds() * rate)
			if i >= n {
				break
			}
			reqs[i] = request{method: http.MethodPost, path: "/reload", reload: true}
		}
	}
	return reqs
}

// conn is one persistent HTTP/1.1 connection with hand-written request
// framing, which keeps the generator's own CPU cost low on a machine
// it shares with the server.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

func (c *conn) close() { c.nc.Close() }

// do sends r and reads the whole response.
func (c *conn) do(r *request, trace string) (int, []byte, error) {
	c.bw.WriteString(r.method)
	c.bw.WriteByte(' ')
	c.bw.WriteString(r.path)
	c.bw.WriteString(" HTTP/1.1\r\nHost: ")
	c.bw.WriteString(c.addr)
	c.bw.WriteString("\r\n")
	if trace != "" {
		c.bw.WriteString(traceHeader + ": " + trace + "\r\n")
	}
	if r.body != nil {
		c.bw.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.bw.WriteString(strconv.Itoa(len(r.body)))
		c.bw.WriteString("\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(r.body)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// loadgen is an open-loop generator over a fixed set of connections,
// one sender goroutine per connection.
type loadgen struct {
	conns []*conn
	tr    *tracer
}

func newLoadgen(addr string, n int, tr *tracer) (*loadgen, error) {
	g := &loadgen{tr: tr}
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// run sends reqs open loop: request i is due at start + i/rate whatever
// happened to earlier requests. A sender that is ahead of the schedule
// waits for the due time in a precise kernel sleep; one that is behind
// sends at once, and the delay shows as lateness (sent − due). Latency
// is timed from the due time, so a stall also charges the requests that
// queued behind it. keep selects the requests whose bodies are kept for
// the byte checks.
func (g *loadgen) run(reqs []request, rate float64, keep func(int) bool) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := range g.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				slept := sleepUntil(due)
				o := &out[i]
				o.slept = slept
				o.due = due.Sub(start)
				o.reload = reqs[i].reload
				o.sent = time.Since(start)
				var trace string
				var id int64
				traced := g.tr.enabled()
				if traced {
					id = g.tr.newID()
					trace = strconv.FormatInt(id, 10) + "-" + strconv.FormatInt(id, 10)
				}
				var body []byte
				o.status, body, o.err = g.conns[ci].do(&reqs[i], trace)
				now := time.Now()
				o.done = now.Sub(start)
				if traced {
					// The client span starts at the due time: it is the
					// wait a user of this request saw.
					g.tr.add(span{Trace: id, ID: id, Name: "loadgen " + endpoint(reqs[i].path),
						Start: g.tr.ns(due), End: g.tr.ns(now)})
				}
				if keep(i) {
					o.body = body
				}
				if o.err != nil {
					g.conns[ci].close()
					if c, err := dial(g.conns[ci].addr); err == nil {
						g.conns[ci] = c
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one phase's outcomes.
type phaseStats struct {
	reads   []float64 // latency from due time, ms; +Inf for failures
	late    []float64 // generator lateness of requests it waited for, ms
	reloads []float64 // reload latency from send, s
	failed  int
}

func summarize(out []outcome) phaseStats {
	var ps phaseStats
	for i := range out {
		o := &out[i]
		if o.slept {
			ps.late = append(ps.late, ms(o.sent-o.due))
		}
		if o.failed() {
			ps.failed++
		}
		switch {
		case o.reload && !o.failed():
			ps.reloads = append(ps.reloads, (o.done - o.sent).Seconds())
		case o.reload:
		case o.failed():
			ps.reads = append(ps.reads, math.Inf(1))
		default:
			ps.reads = append(ps.reads, ms(o.done-o.due))
		}
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
