package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, sorting xs in place; 0 for an empty sample.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reservoirCap bounds the samples a window keeps. Past it the window
// keeps a uniform random sample (reservoir sampling), so memory stays
// fixed however fast the program runs; a p99 over 2^16 samples still
// has 655 samples beyond it.
const reservoirCap = 1 << 16

// window is one measurement window of a recorder.
type window struct {
	kept []int32 // nanoseconds, a uniform sample of all n
	n    int64
}

// recorder keeps one caller's latencies of one op kind, window by
// window. All memory is allocated before the timer starts.
type recorder struct {
	windows []window
	cur     int
	rng     uint64
}

func newRecorder(windows int) *recorder {
	r := &recorder{windows: make([]window, windows), rng: 0x9e3779b97f4a7c15}
	for i := range r.windows {
		r.windows[i].kept = make([]int32, 0, reservoirCap)
	}
	return r
}

func (r *recorder) add(d time.Duration) {
	w := &r.windows[r.cur]
	ns := int32(min(int64(d), math.MaxInt32))
	if len(w.kept) < cap(w.kept) {
		w.kept = append(w.kept, ns)
	} else {
		r.rng = splitmix64(r.rng)
		if j := r.rng % uint64(w.n+1); j < uint64(len(w.kept)) {
			w.kept[j] = ns
		}
	}
	w.n++
}

// advance moves to window i (never backwards, never past the last).
func (r *recorder) advance(i int) {
	if i > r.cur {
		r.cur = min(i, len(r.windows)-1)
	}
}

// summary is a latency distribution: each percentile is the median,
// over the windows, of that window's percentile, which keeps a burst
// of machine noise in one window from moving the figure.
type summary struct {
	n             int64
	p50, p95, p99 float64 // microseconds
}

// summarize pools window i of every recorder into one sample per
// window (the recorders are the callers of one phase, whose windows
// cover the same time or the same share of the work).
func summarize(rs ...*recorder) summary {
	var s summary
	var p50s, p95s, p99s []float64
	for i := 0; ; i++ {
		var pooled []int64
		more := false
		for _, r := range rs {
			if i >= len(r.windows) {
				continue
			}
			more = true
			w := &r.windows[i]
			s.n += w.n
			for _, ns := range w.kept {
				pooled = append(pooled, int64(ns))
			}
		}
		if !more {
			break
		}
		if len(pooled) > 0 {
			p50s = append(p50s, float64(percentile(pooled, 50))/1e3)
			p95s = append(p95s, float64(percentile(pooled, 95))/1e3)
			p99s = append(p99s, float64(percentile(pooled, 99))/1e3)
		}
	}
	s.p50, s.p95, s.p99 = medianFloat(p50s), medianFloat(p95s), medianFloat(p99s)
	return s
}

// windowRates is each window's completed operations per second, over
// every recorder, for windows of length win.
func windowRates(win time.Duration, rs ...*recorder) []float64 {
	var rates []float64
	for i := 0; ; i++ {
		var n int64
		more := false
		for _, r := range rs {
			if i < len(r.windows) {
				more = true
				n += r.windows[i].n
			}
		}
		if !more {
			return rates
		}
		rates = append(rates, float64(n)/win.Seconds())
	}
}
