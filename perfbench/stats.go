package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs;
// NaN for an empty slice. +Inf entries stand for failed requests, which
// miss any latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// heapPeak samples the live heap (what the last GC marked reachable)
// every millisecond until stop, and reports the highest value seen in
// MiB. runtime/metrics reads this without stopping the world. The live
// heap is what the program holds; the heap in use also counts garbage
// not yet collected, and so moved by a tenth from fit to fit with where
// the GC cycles happened to fall.
type heapPeak struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop collects once more, so what is still held at the end counts,
// ends sampling and returns the peak in MiB.
func (h *heapPeak) stop() float64 {
	runtime.GC()
	close(h.stopCh)
	<-h.done
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

// cpuNow returns the CPU seconds (user + system, all threads) this
// process has used.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealNow returns the seconds the hypervisor has kept this machine's
// CPUs from running it, summed over CPUs (the steal column of
// /proc/stat); NaN where that is not available.
func stealNow() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return math.NaN()
	}
	return ticks / 100 // USER_HZ
}
