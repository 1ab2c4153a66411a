package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // median rank 10 leaves 9 beyond
		{20, 50, true},
		{99, 50, true}, // p90 rank 90 leaves 9 beyond
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSummaryReportsSampleCountAndTail(t *testing.T) {
	var l latencies
	for i := 0; i < 1000; i++ {
		l.us = append(l.us, float64(1000-i))
	}
	s := l.summarize()
	if s.n != 1000 || s.p50 != 500 || s.p90 != 900 || s.p99 != 990 || s.tailP != 99 || s.tail != 990 {
		t.Errorf("summary = %+v", s)
	}
}

func TestFailureCounting(t *testing.T) {
	var c counts
	c.add(counts{attempted: 10, errors: 1})
	c.add(counts{attempted: 10, busy: 2, wrong: 1})
	if c.attempted != 20 || c.failed() != 4 {
		t.Fatalf("counts = %+v, failed %d", c, c.failed())
	}
	if got := c.failFrac(); got != 0.2 {
		t.Errorf("failFrac = %v, want 0.2", got)
	}
	if (&counts{}).failFrac() != 0 {
		t.Error("failFrac of nothing attempted should be 0")
	}
}
