package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"viewmat/internal/core"
	"viewmat/internal/exec"
	"viewmat/internal/storage"
)

// replayStats is what the serial in-process replay measured.
type replayStats struct {
	query, commit, refresh latencies
	ops                    int
	elapsed                time.Duration
	meter                  storage.Stats

	// Query plan figures from the plan observer.
	planQueries                         int
	leafRows, rootRows, batches, pruned int64

	// predOverMetered is, per view, the cost model's predicted ms per
	// query over the metered ms per query.
	predOverMetered map[string]float64
}

// viewCost accumulates one view's metered work in the replay.
type viewCost struct {
	queries, rows int
	updates       int // commits writing one of the view's relations
	updatedRows   int
	cost          storage.Stats
}

// replay runs ops serially against a freshly set-up engine, timing each
// engine call. Before a query on a stale deferred view it times the
// refresh on its own through RefreshAll, so core.query_us is the read
// alone. At most limit operations run (all when limit is 0), and the
// replay stops once budget has passed.
func replay(w *workload, seed int64, tr *tracer, ops []sentOp, limit int, budget time.Duration) (*replayStats, error) {
	in, err := build(w, seed, nil)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	db := in.db
	rs := &replayStats{predOverMetered: map[string]float64{}}

	var mu sync.Mutex
	db.SetPlanObserver(func(view, path string, root *exec.PlanNode, _ storage.Stats) {
		if path != core.PlanPathQuery {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		rs.planQueries++
		rs.rootRows += root.Stats.RowsOut
		walkPlan(root, func(n *exec.PlanNode) {
			rs.batches += n.Stats.Batches
			rs.pruned += n.Stats.Pruned
			if len(n.Children) == 0 {
				rs.leafRows += n.Stats.RowsOut
			}
		})
	})
	defer db.SetPlanObserver(nil)

	views := map[string]*view{}
	relViews := map[string][]string{}
	costs := map[string]*viewCost{}
	for _, v := range w.views {
		views[v.name()] = v
		costs[v.name()] = &viewCost{}
		for _, r := range v.def.Relations {
			relViews[r] = append(relViews[r], v.name())
		}
	}

	if limit > 0 && len(ops) > limit {
		ops = ops[:limit]
	}
	m0 := db.Meter().Snapshot()
	start := time.Now()
	var req int64
	for _, so := range ops {
		if time.Since(start) > budget {
			break
		}
		o := so.o
		req++
		if o.kind != opCommit && views[o.view].strategy == core.Deferred {
			stale, err := db.ViewIsStale(o.view)
			if err != nil {
				return nil, err
			}
			if stale {
				before := db.Meter().Snapshot()
				t0 := time.Now()
				if err := db.RefreshAll(); err != nil {
					return nil, fmt.Errorf("replay refresh: %w", err)
				}
				t1 := time.Now()
				tr.add("core.refresh", -req, 0, t0, t1)
				rs.refresh.add(t1.Sub(t0))
				c := costs[o.view]
				c.cost = c.cost.Add(db.Meter().Snapshot().Sub(before))
			}
		}
		before, phases := db.Meter().Snapshot(), db.Breakdown()
		t0 := time.Now()
		rows, err := runOp(coreExec{db}, in.st, o)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay %s %s: %w", kindName(o.kind), o.view, err)
		}
		tr.add("core."+kindName(o.kind), -req, 0, t0, t1)
		rs.ops++
		if o.kind == opCommit {
			rs.commit.add(t1.Sub(t0))
			// Screening and immediate refresh are the per-view commit
			// work the paper prices; it is shared among the views over
			// the written relation.
			after := db.Breakdown()
			work := after[core.PhaseScreen].Sub(phases[core.PhaseScreen]).Add(after[core.PhaseImmRefresh].Sub(phases[core.PhaseImmRefresh]))
			rel := o.writes[0].rel
			for _, name := range relViews[rel] {
				c := costs[name]
				c.updates++
				c.updatedRows += len(o.writes)
				share := len(relViews[rel])
				c.cost = c.cost.Add(storage.Stats{
					Reads: work.Reads / int64(share), Writes: work.Writes / int64(share),
					Screens: work.Screens / int64(share), ADTouches: work.ADTouches / int64(share),
				})
			}
			continue
		}
		rs.query.add(t1.Sub(t0))
		c := costs[o.view]
		c.queries++
		c.rows += len(rows)
		c.cost = c.cost.Add(db.Meter().Snapshot().Sub(before))
	}
	rs.elapsed = time.Since(start)
	rs.meter = db.Meter().Snapshot().Sub(m0)

	for name, c := range costs {
		if c.queries == 0 {
			continue
		}
		v := views[name]
		fv := 1.0
		if v.def.Kind != core.Aggregate {
			fv = min(1, float64(c.rows)/float64(c.queries)/float64(v.size))
		}
		// The engine reads a zero hint as "use the paper's default", so
		// a view with no updates passes a vanishing k instead.
		k, l := 1e-9, 1.0
		if c.updates > 0 {
			k, l = float64(c.updates), float64(c.updatedRows)/float64(c.updates)
		}
		ex, err := db.Explain(name, core.WorkloadHints{UpdateTxns: k, Queries: float64(c.queries), TuplesPerTxn: l, QueryFraction: fv})
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", name, err)
		}
		key := ex.CurrentKey
		if v.strategy == core.QueryModification && v.index >= 0 {
			key = "unclustered"
		}
		metered := modelMS(c.cost) / float64(c.queries)
		if pred, ok := ex.Costs[key]; ok && metered > 0 {
			rs.predOverMetered[name] = pred / metered
		}
	}
	return rs, nil
}

func walkPlan(n *exec.PlanNode, fn func(*exec.PlanNode)) {
	fn(n)
	for _, c := range n.Children {
		walkPlan(c, fn)
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
