package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles the benchmark may report as a tail,
// highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// rankOf is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error in p·n from pushing an exact rank
	// to the next one (99.9% of 10000 is 9990, not 9991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the nearest-rank
// position of percentile p in n samples.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(p, n)
}

// tailPercentile returns the highest percentile in tailLevels that
// leaves at least ten samples beyond it, the largest tail a sample of n
// supports. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if beyond(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted samples
// (NaN when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// latencies collects one operation class's latency samples in
// microseconds.
type latencies struct {
	us []float64
	// at is each sample's send time in seconds from the window's
	// start, for samples added with addAt.
	at []float64
}

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d.Nanoseconds())/1e3) }

func (l *latencies) addAt(d time.Duration, at float64) {
	l.add(d)
	l.at = append(l.at, at)
}

func (l *latencies) merge(o *latencies) {
	l.us = append(l.us, o.us...)
	l.at = append(l.at, o.at...)
}

// parts splits samples added with addAt into k slices of equal length
// over [0, span) seconds by send time.
func (l *latencies) parts(k int, span float64) []latencies {
	out := make([]latencies, k)
	for i, t := range l.at {
		p := min(k-1, max(0, int(t/span*float64(k))))
		out[p].addAt(time.Duration(l.us[i]*1e3), t)
	}
	return out
}

// summary is a latency sample reduced to the figures the benchmark
// prints.
type summary struct {
	n        int
	p50, p90 float64
	p99      float64
	tailP    float64 // highest percentile with ≥10 samples beyond it
	tail     float64
}

func (l *latencies) summarize() summary {
	s := append([]float64(nil), l.us...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: percentile(s, 50), p90: percentile(s, 90), p99: percentile(s, 99), tail: math.NaN()}
	if p, ok := tailPercentile(len(s)); ok {
		out.tailP, out.tail = p, percentile(s, p)
	}
	return out
}

// median of unsorted values (NaN when empty).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// counts tallies operations attempted and failed over a window. A
// failure is an error, a busy refusal or a wrong answer; each counts
// against attempted exactly once.
type counts struct {
	attempted int
	errors    int
	busy      int
	wrong     int
}

func (c *counts) failed() int { return c.errors + c.busy + c.wrong }

func (c *counts) failFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed()) / float64(c.attempted)
}

func (c *counts) add(o counts) {
	c.attempted += o.attempted
	c.errors += o.errors
	c.busy += o.busy
	c.wrong += o.wrong
}
