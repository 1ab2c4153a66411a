package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// tracedRun splits the window in two halves on one set-up engine: an
// untraced half as the reference, then a traced half whose requests go
// through the benchmark's own traced client, a stamping listener and
// timed WAL devices. A serial in-process replay of the traced half's
// operations then times the engine calls alone.
func tracedRun(w *workload, seed int64, dur time.Duration, traceDir string) (*report, error) {
	tr := newTracer()
	in, err := build(w, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.stop()
	if err := in.serve(true); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	half := dur / 2
	runtime.GC()
	ref := runWindow(in, clientExecs(in), seed, 0, half, false)

	var reqID atomic.Int64
	traced := make([]*tracedExec, w.conns)
	execs := make([]executor, w.conns)
	for i := range traced {
		if traced[i], err = dialTraced(in.addr, tr, &reqID); err != nil {
			return nil, err
		}
		defer traced[i].close()
		execs[i] = traced[i]
	}
	leaders0, waiters0 := in.db.RefreshFlightStats()
	deltas0, ads0 := in.db.DeltaScanCount(), in.db.ADScanCount()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in.tracing.Store(true)
	in.lis.on.Store(true)
	ws := runWindow(in, execs, seed, 1, half, true)
	in.lis.on.Store(false)
	in.tracing.Store(false)
	runtime.ReadMemStats(&ms1)
	leaders1, waiters1 := in.db.RefreshFlightStats()
	deltas1, ads1 := in.db.DeltaScanCount(), in.db.ADScanCount()
	resident, diskPages := in.db.Pool().Resident(), in.db.Disk().TotalPages()

	// Pair each client request with its server window, in order on
	// each connection.
	var calls []clientCall
	var windows, sockets latencies
	var windowSum time.Duration
	for _, te := range traced {
		wins := in.lis.take(te.conn.LocalAddr().String())
		if len(wins) != len(te.calls) {
			return nil, fmt.Errorf("connection %s: %d server windows for %d requests", te.conn.LocalAddr(), len(wins), len(te.calls))
		}
		for j, c := range te.calls {
			win := wins[j]
			tr.add("server.window", c.req, c.root, win.lastRead, win.firstWrite)
			d := win.firstWrite.Sub(win.lastRead)
			windows.add(d)
			windowSum += d
			sockets.add(c.ttfb - d)
		}
		calls = append(calls, te.calls...)
	}
	parentWALSpans(tr)
	final := finalChecks(in)

	limit := w.meterOps
	rs, err := replay(w, seed, tr, ws.ops, limit, half)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeJSONL(tracePath); err != nil {
		return nil, err
	}

	// Per-call client figures.
	var encode, decode, ttfb, ttlb latencies
	var reqBytes, respBytes int64
	for _, c := range calls {
		encode.add(c.encode)
		decode.add(c.decode)
		ttfb.add(c.ttfb)
		ttlb.add(c.ttlb)
		reqBytes += c.reqBytes
		respBytes += c.respBytes
	}
	n := len(calls)
	ops := float64(n)
	secs := ws.elapsed.Seconds()

	// Self time per layer, per request.
	layerUS := map[string]float64{}
	for name, total := range selfByName(spans) {
		layer := name[:strings.IndexByte(name, '.')]
		if name == "client.request" {
			layer = "net" // time inside a request that no layer span covers
		}
		per := ops
		if layer == "core" {
			per = float64(rs.ops)
		}
		layerUS[layer] += float64(total.Microseconds()) / per
	}
	walSpans := spanDurations(spans, "wal.")
	walP50 := func(name string) float64 {
		if l := walSpans[name]; l != nil {
			return l.summarize().p50
		}
		return 0
	}
	walCount := func(name string) float64 {
		if l := walSpans[name]; l != nil {
			return float64(len(l.us))
		}
		return 0
	}

	opsPerS := func(ws *windowStats) float64 {
		return float64(len(ws.query.us)+len(ws.commit.us)) / ws.elapsed.Seconds()
	}
	p50 := func(ws *windowStats) float64 {
		var all latencies
		all.merge(&ws.query)
		all.merge(&ws.commit)
		return all.summarize().p50
	}
	refOps, trOps := opsPerS(ref), opsPerS(ws)
	refP50, trP50 := p50(ref), p50(ws)

	// The engine time of a replayed op includes the refresh the replay
	// ran on its own before it, which the server window also holds.
	var coreSum float64
	for _, l := range []*latencies{&rs.query, &rs.commit, &rs.refresh} {
		for _, us := range l.us {
			coreSum += us
		}
	}
	coreMean := coreSum / float64(rs.ops)
	var preds []float64
	for _, v := range sortedKeys(rs.predOverMetered) {
		preds = append(preds, rs.predOverMetered[v])
	}
	commits := float64(ws.commits)

	m := map[string]metric{
		"client.encode_us":            {encode.summarize().p50, "us"},
		"client.decode_us":            {decode.summarize().p50, "us"},
		"client.ttfb_us":              {ttfb.summarize().p50, "us"},
		"client.ttlb_us":              {ttlb.summarize().p50, "us"},
		"proto.req_bytes":             {float64(reqBytes) / ops, "bytes"},
		"proto.resp_bytes":            {float64(respBytes) / ops, "bytes"},
		"go.allocs_per_op":            {float64(ms1.Mallocs-ms0.Mallocs) / ops, "count"},
		"go.gc_pause_ms_per_s":        {float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / secs, "ms/s"},
		"server.window_us":            {windows.summarize().p50, "us"},
		"net.socket_us":               {sockets.summarize().p50, "us"},
		"server.overhead_us":          {float64(windowSum.Microseconds())/ops - coreMean, "us"},
		"server.busy_rejects":         {float64(ws.cnt.busy), "count"},
		"core.query_us":               {rs.query.summarize().p50, "us"},
		"core.commit_us":              {rs.commit.summarize().p50, "us"},
		"core.refresh_us":             {zeroNaN(rs.refresh.summarize().p50), "us"},
		"core.refresh_leaders":        {float64(leaders1 - leaders0), "count"},
		"core.refresh_waiters":        {float64(waiters1 - waiters0), "count"},
		"core.delta_scans":            {float64(deltas1 - deltas0), "count"},
		"core.ad_scans":               {float64(ads1 - ads0), "count"},
		"exec.rows_per_result_row":    {ratio(float64(rs.leafRows), float64(rs.rootRows)), "ratio"},
		"exec.batches_per_query":      {ratio(float64(rs.batches), float64(rs.planQueries)), "count"},
		"exec.pages_pruned":           {ratio(float64(rs.pruned), float64(rs.planQueries)), "count"},
		"storage.reads_per_op":        {ratio(float64(rs.meter.Reads), float64(rs.ops)), "count"},
		"storage.writes_per_op":       {ratio(float64(rs.meter.Writes), float64(rs.ops)), "count"},
		"storage.screens_per_op":      {ratio(float64(rs.meter.Screens), float64(rs.ops)), "count"},
		"storage.ad_touches_per_op":   {ratio(float64(rs.meter.ADTouches), float64(rs.ops)), "count"},
		"storage.pool_resident":       {float64(resident), "pages"},
		"storage.disk_pages":          {float64(diskPages), "pages"},
		"wal.append_us":               {walP50("wal.append"), "us"},
		"wal.sync_us":                 {walP50("wal.sync"), "us"},
		"wal.syncs_per_commit":        {ratio(walCount("wal.sync"), commits), "count"},
		"wal.bytes_per_commit":        {ratio(float64(devBytes(in.walDev)), commits), "bytes"},
		"wal.checkpoint_us":           {walP50("wal.checkpoint"), "us"},
		"wal.snapshot_bytes":          {float64(lastSnapshot(in.snapDev)), "bytes"},
		"costmodel.pred_over_metered": {zeroNaN(median(preds)), "ratio"},
		"trace.ops_overhead_frac":     {1 - trOps/refOps, "ratio"},
		"trace.p50_overhead_frac":     {trP50/refP50 - 1, "ratio"},
		"trace.uncovered_frac":        {uncoveredShare(spans, "client.request"), "ratio"},
		"client.self_us":              {layerUS["client"], "us"},
		"net.self_us":                 {layerUS["net"], "us"},
		"server.self_us":              {layerUS["server"], "us"},
		"wal.self_us":                 {layerUS["wal"], "us"},
		"core.self_us":                {layerUS["core"], "us"},
	}

	fmt.Printf("traced half: %d requests over %d connection(s); reference half: %.1f ops/s, traced half: %.1f ops/s\n", n, w.conns, refOps, trOps)
	printLatency("traced query latency", ws.query.summarize())
	printLatency("traced commit latency", ws.commit.summarize())
	fmt.Println("self time per request by layer (µs):")
	for _, l := range []string{"client", "net", "server", "wal"} {
		fmt.Printf("  %-8s %10.2f\n", l, layerUS[l])
	}
	fmt.Printf("  %-8s %10.2f  (per replayed engine call, %d calls in %.2fs)\n", "core", layerUS["core"], rs.ops, rs.elapsed.Seconds())
	if q := ws.query.summarize(); q.n > 0 && rs.query.summarize().n > 0 {
		fmt.Printf("engine share of a socket query: core.query_us %.1f / query p50 %.1f = %.1f%%\n", rs.query.summarize().p50, q.p50, 100*rs.query.summarize().p50/q.p50)
	}
	if c := ws.commit.summarize(); c.n > 0 && in.walDev != nil {
		walUS := walP50("wal.append") + walP50("wal.sync")
		fmt.Printf("WAL share of a socket commit: (wal.append + wal.sync) p50 %.1f / commit p50 %.1f = %.1f%%\n", walUS, c.p50, 100*walUS/c.p50)
	}
	for _, v := range sortedKeys(rs.predOverMetered) {
		fmt.Printf("costmodel: view %s predicted/metered ms per query = %.3f\n", v, rs.predOverMetered[v])
	}
	fmt.Printf("spans: %d kept, %d dropped, written to %s\n", len(spans), tr.dropped, tracePath)
	if why := checkFailure(ws, final); why != "" {
		fmt.Printf("INCORRECT: %s\n", why)
	}
	cnt := ref.cnt
	cnt.add(ws.cnt)
	return &report{
		Correct:   checkFailure(ref, nil) == "" && checkFailure(ws, final) == "",
		Attempted: cnt.attempted,
		Failed:    cnt.failed(),
		Metrics:   m,
	}, nil
}

// parentWALSpans makes each WAL span a child of the server window that
// contains it and ends first after it: the commit whose record it
// wrote answers as soon as the record is synced.
func parentWALSpans(tr *tracer) {
	spans := tr.snapshot()
	var wins []span
	for _, s := range spans {
		if s.Name == "server.window" {
			wins = append(wins, s)
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].End < wins[j].End })
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "wal.") {
			continue
		}
		for i := sort.Search(len(wins), func(i int) bool { return wins[i].End >= s.End }); i < len(wins); i++ {
			if wins[i].Start <= s.Start {
				tr.setParent(s.ID, wins[i].ID)
				break
			}
		}
	}
}

// spanDurations groups span durations by name for names with prefix.
func spanDurations(spans []span, prefix string) map[string]*latencies {
	out := map[string]*latencies{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if out[s.Name] == nil {
			out[s.Name] = &latencies{}
		}
		out[s.Name].add(time.Duration(s.dur()))
	}
	return out
}

func devBytes(d *timedDevice) int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

func lastSnapshot(d *timedDevice) int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSnapshot
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN reports an empty sample's NaN as 0, which JSON can carry.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
