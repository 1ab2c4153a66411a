// Command loadgen replays seeded zipfian multi-tenant workloads
// against viewmatd and measures per-operation latency, proving the
// adaptive advisor's crossover win end to end: the same phase-shifted
// stream (query-heavy, then update-heavy) runs against three arms —
//
//	static-qm         every view stays query-modification
//	static-immediate  every view stays immediately materialized
//	adaptive          views start at query-modification; the advisor
//	                  re-fits the paper's parameters online and flips
//
// Each arm gets its own in-process server; each tenant gets its own
// relation, secondary index, view, and client connection. The view
// predicate is on a non-clustering column, so query modification pays
// the paper's unclustered plan — the regime where the right strategy
// actually changes with the k/q mix. Per-phase p50/p99 latency and
// throughput land in a JSON report (-o); -check validates a previous
// report against the crossover acceptance bars, so CI can gate on it:
//
//	go run ./cmd/loadgen -o BENCH_advisor.json
//	go run ./cmd/loadgen -check BENCH_advisor.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/server"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

type config struct {
	Seed       int64       `json:"seed"`
	Tenants    int         `json:"tenants"`
	N          float64     `json:"n"`
	F          float64     `json:"f"`
	FV         float64     `json:"fv"`
	Skew       float64     `json:"skew"`
	PoolFrames int         `json:"pool_frames"`
	IOLatencyU int64       `json:"io_latency_us"`
	TickEvery  int         `json:"tick_every"`
	Settle     float64     `json:"settle"`
	Phases     []phaseSpec `json:"phases"`
}

type phaseSpec struct {
	K float64 `json:"k"`
	Q float64 `json:"q"`
	L float64 `json:"l"`
}

// phaseStats reports one arm's steady state in one phase. The headline
// P50/P99 cover the phase's dominant operation kind — the latency the
// phase's mix actually stresses. Percentiles over the mixed stream
// would instead report the *rare* kind whenever it is slower (1% of a
// 90:10 mix is deep inside the minority), hiding exactly the behavior
// the strategy choice changes.
type phaseStats struct {
	Ops         int     `json:"ops"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	QueryP50Us  float64 `json:"query_p50_us"`
	QueryP99Us  float64 `json:"query_p99_us"`
	UpdateP50Us float64 `json:"update_p50_us"`
	UpdateP99Us float64 `json:"update_p99_us"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

type armReport struct {
	Phases []phaseStats `json:"phases"`
	Flips  []flipEvent  `json:"flips,omitempty"`
}

type flipEvent struct {
	Phase  int    `json:"phase"`
	View   string `json:"view"`
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason"`
}

// phaseSummary ranks the arms on dominant-class p50: with only a few
// hundred post-settle samples per phase, tail percentiles are host
// scheduling noise (a single descheduled batch moves p99 by 5x), while
// the median moves only when the strategy choice actually changes the
// work per operation. The per-arm reports still carry p99 for reading.
type phaseSummary struct {
	BestStatic     string  `json:"best_static"`
	BestP50Us      float64 `json:"best_p50_us"`
	WorstStatic    string  `json:"worst_static"`
	WorstP50Us     float64 `json:"worst_p50_us"`
	AdaptiveP50Us  float64 `json:"adaptive_p50_us"`
	AdaptiveVsBest float64 `json:"adaptive_vs_best"`
	WorstVsBest    float64 `json:"worst_vs_best"`
}

type report struct {
	Config  config                `json:"config"`
	Arms    map[string]*armReport `json:"arms"`
	Summary []phaseSummary        `json:"summary"`
}

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	tenants := flag.Int("tenants", 2, "tenant count (one relation+view+connection each)")
	n := flag.Float64("n", 1500, "base relation cardinality per tenant")
	f := flag.Float64("f", 0.6, "view selectivity (high enough that immediate maintenance I/O is visible next to the shared base-update cost)")
	fv := flag.Float64("fv", 0.04, "fraction of the view each query retrieves")
	skew := flag.Float64("skew", 1.2, "zipf s for update keys (≤1 = uniform)")
	phasesFlag := flag.String("phases", "30:270:4,270:30:4", "comma-separated k:q:l phases")
	poolFrames := flag.Int("pool-frames", 12, "buffer-pool frames (small pool keeps metered I/O visible)")
	ioLat := flag.Duration("io", 50*time.Microsecond, "simulated latency per physical page transfer")
	tickEvery := flag.Int("tick", 15, "adaptive arm: advisor decision round every this many tenant-0 ops")
	settle := flag.Float64("settle", 0.5, "fraction of each phase excluded from stats (warm-up + advisor convergence)")
	out := flag.String("o", "", "write the JSON report here")
	check := flag.String("check", "", "validate an existing report instead of running")
	maxAdaptive := flag.Float64("max-adaptive-ratio", 1.15, "check: adaptive p50 must be within this factor of the best static arm")
	minWrong := flag.Float64("min-wrong-ratio", 1.2, "check: the wrong static arm must be at least this factor worse")
	flag.Parse()

	if *check != "" {
		if err := checkReport(*check, *maxAdaptive, *minWrong); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Println("crossover check passed")
		return
	}

	phases, err := parsePhases(*phasesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	cfg := config{
		Seed: *seed, Tenants: *tenants, N: *n, F: *f, FV: *fv, Skew: *skew,
		PoolFrames: *poolFrames, IOLatencyU: ioLat.Microseconds(),
		TickEvery: *tickEvery, Settle: *settle, Phases: phases,
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	printSummary(rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *out)
	}
}

func parsePhases(s string) ([]phaseSpec, error) {
	var out []phaseSpec
	for _, part := range strings.Split(s, ",") {
		nums := strings.Split(part, ":")
		if len(nums) != 3 {
			return nil, fmt.Errorf("phase %q: want k:q:l", part)
		}
		var v [3]float64
		for i, t := range nums {
			x, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
			if err != nil {
				return nil, fmt.Errorf("phase %q: %w", part, err)
			}
			v[i] = x
		}
		out = append(out, phaseSpec{K: v[0], Q: v[1], L: v[2]})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two phases for a crossover")
	}
	return out, nil
}

func (c config) params(ph phaseSpec) costmodel.Params {
	p := costmodel.Default()
	p.N, p.F, p.FV = c.N, c.F, c.FV
	p.K, p.Q, p.L = ph.K, ph.Q, ph.L
	return p
}

// run measures all three arms sequentially (own server each) so they
// never compete for CPU.
func run(cfg config) (*report, error) {
	rep := &report{Config: cfg, Arms: map[string]*armReport{}}
	arms := []struct {
		name     string
		strategy core.Strategy
		adaptive bool
	}{
		{"static-qm", core.QueryModification, false},
		{"static-immediate", core.Immediate, false},
		{"adaptive", core.QueryModification, true},
	}
	for _, arm := range arms {
		fmt.Printf("--- arm %s\n", arm.name)
		ar, err := runArm(cfg, arm.strategy, arm.adaptive)
		if err != nil {
			return nil, fmt.Errorf("arm %s: %w", arm.name, err)
		}
		rep.Arms[arm.name] = ar
	}
	for pi := range cfg.Phases {
		qm := rep.Arms["static-qm"].Phases[pi]
		im := rep.Arms["static-immediate"].Phases[pi]
		ad := rep.Arms["adaptive"].Phases[pi]
		s := phaseSummary{BestStatic: "static-qm", BestP50Us: qm.P50Us, WorstStatic: "static-immediate", WorstP50Us: im.P50Us}
		if im.P50Us < qm.P50Us {
			s.BestStatic, s.BestP50Us = "static-immediate", im.P50Us
			s.WorstStatic, s.WorstP50Us = "static-qm", qm.P50Us
		}
		s.AdaptiveP50Us = ad.P50Us
		s.AdaptiveVsBest = ad.P50Us / s.BestP50Us
		s.WorstVsBest = s.WorstP50Us / s.BestP50Us
		rep.Summary = append(rep.Summary, s)
	}
	return rep, nil
}

func runArm(cfg config, strategy core.Strategy, adaptive bool) (*armReport, error) {
	db := core.NewDatabase(core.Options{
		PageSize:           int(costmodel.Default().B),
		PoolFrames:         cfg.PoolFrames,
		MaxRefreshWorkers:  4,
		SimulatedIOLatency: time.Duration(cfg.IOLatencyU) * time.Microsecond,
	})
	if adaptive {
		// A short half-life keeps the estimates tracking the live mix,
		// so the advisor notices the phase shift within a phase.
		if err := db.EnableAdaptive(core.AdvisorOptions{MinObservations: 12, HalfLife: 16}); err != nil {
			return nil, err
		}
	}
	srv := server.New(db, server.Config{MaxInflight: 64, Logf: func(string, ...any) {}})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	defer func() {
		srv.Kill()
		<-serveDone
	}()
	addr := lis.Addr().String()

	ts := make([]*tenant, cfg.Tenants)
	for i := range ts {
		t, err := newTenant(cfg, addr, i, strategy)
		if err != nil {
			return nil, err
		}
		defer t.c.Close()
		ts[i] = t
	}

	var admin *client.Client
	if adaptive {
		admin, err = client.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer admin.Close()
	}

	ar := &armReport{}
	for pi := range cfg.Phases {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, len(ts))
		flipc := make(chan flipEvent, 64)
		for i, t := range ts {
			wg.Add(1)
			go func(i int, t *tenant) {
				defer wg.Done()
				// Tenant 0 doubles as the advisor driver: a decision
				// round every tick ops, like viewmatd's -adapt-every
				// ticker but deterministic in op count.
				var ticker func()
				if admin != nil && i == 0 {
					ticker = func() {
						flips, err := admin.AdaptTick()
						if err != nil {
							return
						}
						for _, fl := range flips {
							flipc <- flipEvent{Phase: pi, View: fl.View, From: fl.From, To: fl.To, Reason: fl.Reason}
						}
					}
				}
				errs[i] = t.runPhase(pi, cfg.TickEvery, ticker)
			}(i, t)
		}
		wg.Wait()
		close(flipc)
		for fl := range flipc {
			ar.Flips = append(ar.Flips, fl)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		ar.Phases = append(ar.Phases, summarizePhase(ts, pi, cfg.Settle, time.Since(start)))
	}
	return ar, nil
}

// tenant owns one relation, one view, one connection, and its
// deterministic phased operation stream.
type tenant struct {
	c      *client.Client
	rel    string
	view   string
	n      int64
	ids    map[int64]uint64 // clustering key -> live tuple id
	ops    []workload.Operation
	starts []int
	// lat[phase] holds per-op wall latencies in stream order.
	lat [][]opLat
}

type opLat struct {
	kind workload.OpKind
	dur  time.Duration
}

func newTenant(cfg config, addr string, idx int, strategy core.Strategy) (*tenant, error) {
	var phases []workload.Phase
	for _, ph := range cfg.Phases {
		phases = append(phases, workload.Phase{Params: cfg.params(ph), Skew: cfg.Skew})
	}
	ops, starts, err := workload.GeneratePhased(cfg.Seed+int64(idx)*7919, phases...)
	if err != nil {
		return nil, err
	}
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		c: c, rel: fmt.Sprintf("r%d", idx), view: fmt.Sprintf("v%d", idx),
		n: int64(cfg.N), ids: make(map[int64]uint64), ops: ops, starts: starts,
		lat: make([][]opLat, len(cfg.Phases)),
	}

	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	if err := c.CreateRelationBTree(t.rel, schema, 0); err != nil {
		return nil, err
	}
	// The view predicate and key live on column a, not the clustering
	// key, so query modification runs the paper's unclustered plan
	// through this secondary index — the regime with a real strategy
	// crossover (a clustered-key predicate makes QM unbeatable, §3.2).
	if err := c.CreateSecondaryIndex(t.rel, 1); err != nil {
		return nil, err
	}
	n := int64(cfg.N)
	for lo := int64(0); lo < n; lo += 250 {
		tx := c.Begin()
		hi := lo + 250
		if hi > n {
			hi = n
		}
		for k := lo; k < hi; k++ {
			// a is a modular permutation of k, so a contiguous view-key
			// range maps to base tuples scattered across the relation —
			// the random placement the unclustered plan's cost assumes.
			// (a = k would put the view's tuples on consecutive leaves
			// and quietly hand QM clustered-plan performance.)
			tx.Insert(t.rel, tuple.I(k), tuple.I(t.perm(k)), tuple.I(k%997))
		}
		ids, err := tx.Commit()
		if err != nil {
			return nil, err
		}
		for i, k := 0, lo; k < hi; i, k = i+1, k+1 {
			t.ids[k] = ids[i]
		}
	}
	viewTuples := int64(cfg.F * cfg.N)
	def := core.Def{
		Name:      t.view,
		Kind:      core.SelectProject,
		Relations: []string{t.rel},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 1, Op: pred.Ge, Val: tuple.I(0)},
			pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.I(viewTuples)},
		),
		Project:    [][]int{{1, 2}},
		ViewKeyCol: 0,
	}
	if err := c.CreateView(def, strategy); err != nil {
		return nil, err
	}
	return t, nil
}

// perm maps a clustering key to its view-key value a: a modular
// permutation of [0, n) (the multiplier is prime, so it is coprime to
// any realistic n). An update rewrites the payload only; a is a pure
// function of k, so view membership never changes mid-run and the
// measured selectivity stays at f.
func (t *tenant) perm(k int64) int64 { return k * 1000003 % t.n }

func (t *tenant) runPhase(pi, tickEvery int, tick func()) error {
	lo := t.starts[pi]
	hi := len(t.ops)
	if pi+1 < len(t.starts) {
		hi = t.starts[pi+1]
	}
	for i := lo; i < hi; i++ {
		op := t.ops[i]
		start := time.Now()
		switch op.Kind {
		case workload.OpUpdate:
			// Zipf streams repeat hot keys within one transaction; a
			// tuple id is only valid for the first rewrite, so apply
			// one modification per key (the last payload wins).
			payload := make(map[int64]int64, len(op.Keys))
			keys := op.Keys[:0:0]
			for j, k := range op.Keys {
				if _, dup := payload[k]; !dup {
					keys = append(keys, k)
				}
				payload[k] = op.NewPayload[j]
			}
			tx := t.c.Begin()
			for _, k := range keys {
				tx.Update(t.rel, tuple.I(k), t.ids[k], tuple.I(k), tuple.I(t.perm(k)), tuple.I(payload[k]))
			}
			ids, err := tx.Commit()
			if err != nil {
				return fmt.Errorf("%s op %d: %w", t.rel, i, err)
			}
			for j, k := range keys {
				t.ids[k] = ids[j]
			}
		case workload.OpQuery:
			rg := pred.NewRange(tuple.I(op.QueryLo), tuple.I(op.QueryHi), true, true)
			if _, err := t.c.QueryView(t.view, rg); err != nil {
				return fmt.Errorf("%s op %d: %w", t.view, i, err)
			}
		}
		t.lat[pi] = append(t.lat[pi], opLat{kind: op.Kind, dur: time.Since(start)})
		if tick != nil && (i-lo+1)%tickEvery == 0 {
			tick()
		}
	}
	return nil
}

// summarizePhase merges post-settle latencies across tenants. The
// settle prefix of each tenant's stream absorbs both cache warm-up and
// the adaptive arm's convergence, so the stats compare steady states.
func summarizePhase(ts []*tenant, pi int, settle float64, wall time.Duration) phaseStats {
	var queries, updates []time.Duration
	total := 0
	for _, t := range ts {
		l := t.lat[pi]
		total += len(l)
		for _, ol := range l[int(float64(len(l))*settle):] {
			if ol.kind == workload.OpQuery {
				queries = append(queries, ol.dur)
			} else {
				updates = append(updates, ol.dur)
			}
		}
	}
	pct := func(s []time.Duration, q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		return float64(s[int(q*float64(len(s)-1))].Microseconds())
	}
	for _, s := range [][]time.Duration{queries, updates} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	dominant := queries
	if len(updates) > len(queries) {
		dominant = updates
	}
	return phaseStats{
		Ops:         total,
		P50Us:       pct(dominant, 0.50),
		P99Us:       pct(dominant, 0.99),
		QueryP50Us:  pct(queries, 0.50),
		QueryP99Us:  pct(queries, 0.99),
		UpdateP50Us: pct(updates, 0.50),
		UpdateP99Us: pct(updates, 0.99),
		OpsPerSec:   float64(total) / wall.Seconds(),
	}
}

func printSummary(rep *report) {
	for pi, s := range rep.Summary {
		ph := rep.Config.Phases[pi]
		fmt.Printf("phase %d (k=%.0f q=%.0f l=%.0f): best %s p50=%.0fus; adaptive p50=%.0fus (%.2fx); worst %s p50=%.0fus (%.2fx)\n",
			pi, ph.K, ph.Q, ph.L, s.BestStatic, s.BestP50Us, s.AdaptiveP50Us, s.AdaptiveVsBest, s.WorstStatic, s.WorstP50Us, s.WorstVsBest)
	}
	for _, fl := range rep.Arms["adaptive"].Flips {
		fmt.Printf("flip (phase %d): %s %s -> %s (%s)\n", fl.Phase, fl.View, fl.From, fl.To, fl.Reason)
	}
}

// checkReport enforces the crossover acceptance bars on a previous
// run's report: in every phase the adaptive arm's p50 stays within
// maxAdaptive of the best static arm, the best static arm differs
// across phases (the crossover is real), and in every phase the wrong
// static arm is at least minWrong worse.
func checkReport(path string, maxAdaptive, minWrong float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	if len(rep.Summary) < 2 {
		return fmt.Errorf("%s: fewer than two phases", path)
	}
	bests := map[string]bool{}
	for pi, s := range rep.Summary {
		bests[s.BestStatic] = true
		if s.AdaptiveVsBest > maxAdaptive {
			return fmt.Errorf("phase %d: adaptive p50 %.2fx the best static arm (%s), above the %.2fx bar",
				pi, s.AdaptiveVsBest, s.BestStatic, maxAdaptive)
		}
		if s.WorstVsBest < minWrong {
			return fmt.Errorf("phase %d: wrong static arm only %.2fx worse than best, below the %.2fx bar — no crossover pressure",
				pi, s.WorstVsBest, minWrong)
		}
	}
	if len(bests) < 2 {
		return fmt.Errorf("same static arm won every phase — workload has no crossover")
	}
	if len(rep.Arms["adaptive"].Flips) == 0 {
		return fmt.Errorf("adaptive arm never flipped")
	}
	return nil
}
