package main

import (
	"testing"
	"time"
)

func TestCoveredUnionsAndClips(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},           // overlap counted once
		{0, 100, [][2]int64{{-50, 10}, {90, 150}}, 20},         // clipped to the parent
		{0, 100, [][2]int64{{10, 60}, {20, 30}, {50, 70}}, 60}, // nested and chained
		{0, 100, [][2]int64{{200, 300}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// request [0,100) with encode [0,10), server window [30,70) holding a
	// WAL sync [40,60), and decode [90,100).
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Name: "client.encode", Start: 0, End: 10, Parent: 1},
		{ID: 3, Name: "server.window", Start: 30, End: 70, Parent: 1},
		{ID: 4, Name: "wal.sync", Start: 40, End: 60, Parent: 3},
		{ID: 5, Name: "client.decode", Start: 90, End: 100, Parent: 1},
	}
	want := []int64{40, 10, 20, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var sum int64
	for _, s := range got {
		sum += s
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, want the root's %d", sum, spans[0].dur())
	}
	if got := uncoveredShare(spans, "client.request"); got != 0.4 {
		t.Errorf("uncovered share = %v, want 0.4", got)
	}
	byName := selfByName(spans)
	if len(byName) != 5 || byName["client.decode"] != 10 || byName["server.window"] != 20 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerParentsWALSpansToTheCommitThatSynced(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	// Two overlapping server windows; the sync inside both belongs to
	// the one that answers first after it.
	a := tr.add("server.window", 1, 0, at(0), at(100))
	b := tr.add("server.window", 2, 0, at(10), at(60))
	s := tr.add("wal.sync", 0, 0, at(20), at(50))
	late := tr.add("wal.append", 0, 0, at(70), at(80))
	parentWALSpans(tr)
	spans := tr.snapshot()
	if spans[s-1].Parent != b {
		t.Errorf("sync parent = %d, want window %d", spans[s-1].Parent, b)
	}
	if spans[late-1].Parent != a {
		t.Errorf("append parent = %d, want window %d", spans[late-1].Parent, a)
	}
}

func TestSpanDurationsGroupByName(t *testing.T) {
	spans := []span{
		{Name: "wal.sync", Start: 0, End: 2000},
		{Name: "wal.sync", Start: 0, End: 4000},
		{Name: "client.encode", Start: 0, End: 1000},
	}
	d := spanDurations(spans, "wal.")
	if len(d) != 1 || len(d["wal.sync"].us) != 2 {
		t.Fatalf("spanDurations = %v", d)
	}
	if got := d["wal.sync"].summarize().p50; got != 2 {
		t.Errorf("median wal.sync = %v µs, want 2", got)
	}
}
