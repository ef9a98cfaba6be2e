package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (method "exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. With fewer than 21 samples
// that percentile would be at or below the median, so the sample
// supports no tail: the median is returned, as percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	// The sample at 0-based index n-11 has exactly ten samples above it.
	return sortedCopy(xs)[n-11], math.Floor(1000*float64(n-10)/float64(n)) / 10
}

// latencies holds one metric's samples grouped by the run (rep or
// round) that produced them.
type latencies [][]float64

func (l latencies) all() []float64 {
	var xs []float64
	for _, g := range l {
		xs = append(xs, g...)
	}
	return xs
}

// p50 is the median of every sample.
func (l latencies) p50() float64 { return median(l.all()) }

// tail is the median over runs of each run's tail. One run's tail is an
// order statistic with ten samples beyond it, whose spread does not
// shrink as runs get longer; the median over runs does.
func (l latencies) tail() (value, pct float64) {
	var vs, ps []float64
	for _, g := range l {
		v, p := tail(g)
		vs = append(vs, v)
		ps = append(ps, p)
	}
	return median(vs), median(ps)
}

// String summarizes the samples for the log.
func (l latencies) String() string {
	v, p := l.tail()
	return fmt.Sprintf("%d samples in %d runs, p50 %.4f, tail p%g %.4f (median over runs)", len(l.all()), len(l), l.p50(), p, v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSS tracks the process's resident-set high-water mark (VmHWM).
// reset writes 5 to /proc/self/clear_refs, which restarts the mark, so a
// measured phase is not charged for memory set-up touched earlier.
type peakRSS struct{ resetOK bool }

func (p *peakRSS) reset() {
	runtime.GC()
	debug.FreeOSMemory()
	p.resetOK = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// mb returns VmHWM in MiB.
func (p *peakRSS) mb() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// heapSampler records the peak of live heap bytes by polling
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// totalAllocMB returns the cumulative bytes allocated on the heap, in MiB.
func totalAllocMB() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}
