package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// (or one fit) share Trace; Parent is the span that caused this one (0
// for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written once, when the run
// ends. on gates recording so a traced run can interleave untraced
// windows and measure the tracing overhead against them.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// enabled reports whether spans are being recorded; nil-safe so untraced
// runs pass a nil tracer everywhere.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished span with a fresh ID and returns that ID.
func (t *tracer) record(trace, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.add(span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceHeader carries "<trace>-<parent span>" from the load generator
// to the first traced handler; past it, the span rides the request
// context, which the router hands to its in-process backends.
const traceHeader = "X-Bench-Trace"

type spanCtxKey struct{}

type spanRef struct{ trace, parent int64 }

func spanFrom(r *http.Request) (spanRef, bool) {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		return ref, true
	}
	tr, par, ok := strings.Cut(r.Header.Get(traceHeader), "-")
	if !ok {
		return spanRef{}, false
	}
	trace, err1 := strconv.ParseInt(tr, 10, 64)
	parent, err2 := strconv.ParseInt(par, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}, false
	}
	return spanRef{trace, parent}, true
}

// wrap records a span named layer plus the request's endpoint around
// every traced request next serves.
func (t *tracer) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := spanFrom(r)
		if !ok || !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{ref.trace, id})))
		t.add(span{Trace: ref.trace, ID: id, Parent: ref.parent, Name: layer + " " + endpoint(r.URL.Path),
			Start: t.ns(start), End: t.ns(time.Now())})
	})
}

// endpoint names a request path by its first segment ("/profile/17" →
// "/profile").
func endpoint(path string) string {
	path, _, _ = strings.Cut(path, "?")
	if i := strings.IndexByte(path[1:], '/'); i >= 0 {
		return path[:i+1]
	}
	return path
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a JSON-lines span file written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// selfTimes returns, per span name, the total time spans of that name
// spent outside their children: a span's duration minus the part of its
// interval its child spans cover (children may overlap, as a bulk
// request's backend calls do).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[[2]int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := [2]int64{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[[2]int64{s.Trace, s.ID}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// printSelfTimes writes the self-time table, largest first.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Println("self time by span (traced reps and windows only):")
	for _, n := range names {
		fmt.Printf("  %-34s %8d spans  %12.3f ms self\n", n, count[n], float64(self[n])/1e6)
	}
}
