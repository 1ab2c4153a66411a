// Command perfbench is viewmat's end-to-end benchmark. It sets up an
// engine for one named workload, serves it from an in-process viewmatd
// server on a loopback listener, drives it through the client library
// for a fixed window, checks every answer, and prints the end-to-end
// metrics; with -trace 1 it instead reports a per-layer breakdown from
// spans the benchmark records around each layer's public calls.
//
//	go run . -workload range-read -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Span dumps of traced runs go
// to .bench_build/traces in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets up the engine;
// setup_s is the median.
const setupRepeats = 5

// gcPercent is the collector setting of the benchmark process. The
// in-process client shares the server's heap of a few MiB, so at the
// default of 100 a collection runs every few dozen requests and where
// its cycles fall decides whole runs' tail latency; at 400 runs repeat.
const gcPercent = 400

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: range-read, durable-commit or zipf-mix")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	debug.SetGCPercent(gcPercent)
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v); usage: -workload NAME -seed N -seconds S -trace 0|1\n", err)
		return 2
	}
	printHeader(w, *seed, *seconds)
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, dur, filepath.Join(".bench_build", "traces"))
	} else {
		rep, err = plainRun(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for name, m := range rep.Metrics {
		m.Value = zeroNaN(m.Value)
		rep.Metrics[name] = m
	}
	printMetrics(rep)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printHeader(w *workload, seed int64, seconds int) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("seed %d, window %ds, %d connection(s), closed loop, pool %d frames\n", seed, seconds, w.conns, w.poolFrames)
	fmt.Printf("sizes: range-read %d+%d rows (commit every %d ops), durable-commit %d rows (probe every %d ops), zipf-mix %d/%d/%d rows, l=%d, s=%g, range width %d\n",
		rrRows, rrSide, rangeReadCommitEvery, dcRows, durableCommitProbeEvery, zmRows, zmJ1, zmJ2, zipfTxRows, zipfS, rangeWidth)
	if w.checkpointEvery > 0 {
		fmt.Printf("WAL: in-memory devices standing in for tmpfs files (a crash keeps the synced prefix), a sync on every acknowledged commit, checkpoint every %d commits\n", w.checkpointEvery)
	} else {
		fmt.Println("WAL: none")
	}
	fmt.Printf("%s, GOMAXPROCS %d, nproc %d, GOGC %d, %s/%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gcPercent, runtime.GOOS, runtime.GOARCH)
}

// printMetrics prints every metric by name with its unit.
func printMetrics(rep *report) {
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("  %-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("correct %v, attempted %d, failed %d\n", rep.Correct, rep.Attempted, rep.Failed)
}

// printLatency prints a latency summary with its sample count and the
// highest percentile the sample supports.
func printLatency(name string, s summary) {
	if s.n == 0 {
		fmt.Printf("%s: no samples\n", name)
		return
	}
	tail := "no percentile has 10 samples beyond it"
	if s.tailP > 0 {
		tail = fmt.Sprintf("highest supported p%g = %.1f µs", s.tailP, s.tail)
	}
	fmt.Printf("%s: n=%d p50=%.1f p90=%.1f p99=%.1f µs; %s\n", name, s.n, s.p50, s.p90, s.p99, tail)
	for _, p := range []float64{90, 99} {
		if beyond(p, s.n) < 10 {
			fmt.Printf("  note: p%g of %s has only %d samples beyond it\n", p, name, beyond(p, s.n))
		}
	}
}

// checkFailure describes why a run's answers are not all correct ("" if
// they are).
func checkFailure(ws *windowStats, final error) string {
	var why []string
	if ws.cnt.wrong > 0 {
		why = append(why, fmt.Sprintf("%d wrong answers (first: %v)", ws.cnt.wrong, ws.firstErr))
	}
	if final != nil {
		why = append(why, final.Error())
	}
	return strings.Join(why, "; ")
}

// finalChecks runs the post-window checks: every view against the
// record, then, with a WAL, crash recovery.
func finalChecks(in *instance) error {
	if err := checkViews(in.db, in.w.views, in.st); err != nil {
		return fmt.Errorf("final view check: %w", err)
	}
	if in.w.checkpointEvery > 0 {
		if err := in.checkRecovery(); err != nil {
			return fmt.Errorf("recovery check: %w", err)
		}
	}
	return in.closeErr
}
