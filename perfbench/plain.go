package main

import (
	"fmt"
	"runtime"
	"time"
)

// windowSlices is the number of equal slices of the window that the
// latency percentiles and the throughput are taken over; each is
// reported as the median over the slices, so that a burst of host
// noise in one slice does not move it.
const windowSlices = 6

// plainRun is the untraced run: it sets up setupRepeats times, drives
// the last engine for dur and reports the end-to-end metrics.
func plainRun(w *workload, seed int64, dur time.Duration) (*report, error) {
	var setups []float64
	var in *instance
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.stop()
		}
		t0 := time.Now()
		var err error
		if in, err = build(w, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := in.serve(false); err != nil {
			in.stop()
			return nil, fmt.Errorf("starting server: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.stop()
	runtime.GC()

	ws := runWindow(in, clientExecs(in), seed, 0, dur, false)
	query, commit := ws.query.summarize(), ws.commit.summarize()
	sl := sliceWindow(ws, dur.Seconds())
	space := spaceAmp(in)
	final := finalChecks(in)
	// The heap is read with only the engine left: the server stopped
	// and the benchmark's own samples and record released.
	in.kill()
	ws.query, ws.commit, in.st = latencies{}, latencies{}, nil
	heap := liveHeapMB()

	fmt.Printf("set-up: %d runs, %.3f s median of %v\n", len(setups), median(setups), setups)
	printLatency("query latency", query)
	printLatency("commit latency", commit)
	for i, s := range sl.slices {
		fmt.Printf("  slice %d: %7.1f ops/s  query n=%d p50 %.1f p90 %.1f  commit n=%d p50 %.1f p90 %.1f µs\n",
			i, s.opsPerS, s.query.n, s.query.p50, s.query.p90, s.commit.n, s.commit.p50, s.commit.p90)
		for _, c := range []struct {
			name string
			n    int
			p    float64
		}{{"query", s.query.n, 90}, {"commit", s.commit.n, 90}} {
			if beyond(c.p, c.n) < 10 {
				fmt.Printf("  note: slice %d has %d %s samples, too few for p%g\n", i, c.n, c.name, c.p)
			}
		}
	}
	fmt.Printf("fail_frac %.6f (%d errors, %d busy, %d wrong of %d attempted)\n", ws.cnt.failFrac(), ws.cnt.errors, ws.cnt.busy, ws.cnt.wrong, ws.cnt.attempted)
	if ws.firstErr != nil {
		fmt.Printf("first failure: %v\n", ws.firstErr)
	}
	fmt.Printf("metered over %d ops (%d queries, %d commits): %v\n", ws.meterOps, ws.queries, ws.commits, ws.meter)
	why := checkFailure(ws, final)
	if why != "" {
		fmt.Printf("INCORRECT: %s\n", why)
	}

	return &report{
		Correct:   why == "",
		Attempted: ws.cnt.attempted,
		Failed:    ws.cnt.failed(),
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"ops_per_s":           {sl.median(func(s sliceStats) float64 { return s.opsPerS }), "ops/s"},
			"query_p50_us":        {sl.median(func(s sliceStats) float64 { return s.query.p50 }), "us"},
			"query_p90_us":        {sl.median(func(s sliceStats) float64 { return s.query.p90 }), "us"},
			"commit_p50_us":       {sl.median(func(s sliceStats) float64 { return s.commit.p50 }), "us"},
			"commit_p90_us":       {sl.median(func(s sliceStats) float64 { return s.commit.p90 }), "us"},
			"model_ms_per_query":  {perOp(modelMS(ws.queryCost), ws.queries), "model-ms"},
			"model_ms_per_commit": {perOp(modelMS(ws.commitCost), ws.commits), "model-ms"},
			"live_heap_mb":        {heap, "MiB"},
			"space_amp":           {space, "ratio"},
		},
	}, nil
}

// sliceStats is one slice of a window.
type sliceStats struct {
	opsPerS       float64
	query, commit summary
}

type slicedWindow struct{ slices []sliceStats }

// sliceWindow splits a window's samples by send time into windowSlices
// equal slices of span seconds.
func sliceWindow(ws *windowStats, span float64) slicedWindow {
	qp, cp := ws.query.parts(windowSlices, span), ws.commit.parts(windowSlices, span)
	var sw slicedWindow
	for i := range qp {
		q, c := qp[i].summarize(), cp[i].summarize()
		sw.slices = append(sw.slices, sliceStats{opsPerS: float64(q.n+c.n) / (span / windowSlices), query: q, commit: c})
	}
	return sw
}

// median is the median over the slices of one figure.
func (sw slicedWindow) median(f func(sliceStats) float64) float64 {
	vals := make([]float64, len(sw.slices))
	for i, s := range sw.slices {
		vals[i] = f(s)
	}
	return median(vals)
}

func clientExecs(in *instance) []executor {
	out := make([]executor, len(in.clients))
	for i, c := range in.clients {
		out[i] = clientExec{c}
	}
	return out
}

// liveHeapMB is the Go heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// spaceAmp is the simulated disk's allocated bytes over the raw bytes
// of the live user rows.
func spaceAmp(in *instance) float64 {
	return float64(in.db.Disk().TotalPages()*in.db.Disk().PageSize()) / float64(in.st.rawBytes())
}

func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
