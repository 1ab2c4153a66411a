package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/storage"
)

// sentOp is an operation with the time its request was sent.
type sentOp struct {
	at time.Time
	o  op
}

// windowStats is what one measured window produced.
type windowStats struct {
	cnt      counts
	firstErr error
	query    latencies // view queries and aggregate reads
	commit   latencies
	elapsed  time.Duration
	ops      []sentOp // sent operations, when recorded

	// Metered figures over the window's first meterOps operations (all
	// of them when meterOps is 0).
	meter                      storage.Stats
	meterOps, queries, commits int
	queryCost, commitCost      storage.Stats
}

// connStats is one connection's share of a window.
type connStats struct {
	cnt           counts
	firstErr      error
	query, commit latencies
	ops           []sentOp
}

// meterMark captures the meter and phase breakdown once the window's
// meterOps-th operation completes.
type meterMark struct {
	once             sync.Once
	meter            storage.Stats
	phases           map[core.Phase]storage.Stats
	queries, commits int64
}

// runWindow drives every executor for dur, each on its own seeded
// generator, and collects latencies, failures and metered costs.
func runWindow(in *instance, execs []executor, seed int64, window int, dur time.Duration, record bool) *windowStats {
	w := in.w
	m0, b0 := in.db.Meter().Snapshot(), in.db.Breakdown()
	var done, nq, nc atomic.Int64
	mark := &meterMark{}
	capture := func() {
		mark.once.Do(func() {
			mark.meter, mark.phases = in.db.Meter().Snapshot(), in.db.Breakdown()
			mark.queries, mark.commits = nq.Load(), nc.Load()
		})
	}
	start := time.Now()
	end := start.Add(dur)
	per := make([]*connStats, len(execs))
	var wg sync.WaitGroup
	for i, e := range execs {
		cs := &connStats{}
		per[i] = cs
		g := newGen(w, in.st, i, seed, window)
		wg.Add(1)
		go func(e executor) {
			defer wg.Done()
			for time.Now().Before(end) {
				o := w.next(g)
				sent := time.Now()
				if record {
					cs.ops = append(cs.ops, sentOp{at: sent, o: o})
				}
				rows, err := runOp(e, in.st, o)
				lat, at := time.Since(sent), sent.Sub(start).Seconds()
				if err == nil {
					if err = checkOp(g, o, rows); err != nil {
						err = fmt.Errorf("%w: %s %s [%d,%d): %v", errWrong, kindName(o.kind), o.view, o.lo, o.hi, err)
					}
				}
				cs.cnt.attempted++
				switch {
				case err == nil:
					if o.kind == opCommit {
						cs.commit.addAt(lat, at)
						nc.Add(1)
					} else {
						cs.query.addAt(lat, at)
						nq.Add(1)
					}
				case errors.Is(err, client.ErrBusy):
					cs.cnt.busy++
				case errors.Is(err, errWrong):
					cs.cnt.wrong++
				default:
					cs.cnt.errors++
				}
				if err != nil && cs.firstErr == nil {
					cs.firstErr = err
				}
				if n := done.Add(1); w.meterOps > 0 && n == int64(w.meterOps) {
					capture()
				}
			}
		}(e)
	}
	wg.Wait()
	ws := &windowStats{elapsed: time.Since(start)}
	capture()
	for _, cs := range per {
		ws.cnt.add(cs.cnt)
		if ws.firstErr == nil {
			ws.firstErr = cs.firstErr
		}
		ws.query.merge(&cs.query)
		ws.commit.merge(&cs.commit)
		ws.ops = append(ws.ops, cs.ops...)
	}
	sort.SliceStable(ws.ops, func(i, j int) bool { return ws.ops[i].at.Before(ws.ops[j].at) })
	ws.meter = mark.meter.Sub(m0)
	ws.queries, ws.commits = int(mark.queries), int(mark.commits)
	ws.meterOps = ws.queries + ws.commits
	for p, s := range mark.phases {
		d := s.Sub(b0[p])
		if queryPhase(p) {
			ws.queryCost = ws.queryCost.Add(d)
		} else {
			ws.commitCost = ws.commitCost.Add(d)
		}
	}
	return ws
}

// queryPhase reports whether work in phase p is done for a view query:
// the query itself and the deferred refresh it triggers. The other
// phases are commit work (base writes, screening, immediate refresh).
func queryPhase(p core.Phase) bool {
	switch p {
	case core.PhaseQuery, core.PhaseADRead, core.PhaseDefRefresh, core.PhaseFold:
		return true
	}
	return false
}

// modelMS prices metered counts at the paper's default unit costs.
func modelMS(s storage.Stats) float64 {
	p := costmodel.Default()
	return s.Cost(p.C1, p.C2, p.C3)
}

func kindName(k opKind) string {
	switch k {
	case opQuery:
		return "query"
	case opAgg:
		return "aggregate"
	default:
		return "commit"
	}
}
