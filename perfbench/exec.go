package main

import (
	"errors"
	"fmt"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// txWrite is a write with its tuple's current id resolved.
type txWrite struct {
	rel  string
	key  tuple.Value
	id   uint64
	vals []tuple.Value
}

// executor runs operations against one engine surface: a socket
// connection or the engine itself.
type executor interface {
	query(view string, rg *pred.Range) ([][]tuple.Value, error)
	aggregate(view string) (float64, bool, error)
	commit(ws []txWrite) ([]uint64, error)
}

// errWrong marks an answer that failed the benchmark's check.
var errWrong = errors.New("wrong answer")

// runOp executes o on e, resolving tuple ids from st and recording
// acknowledged writes in st. It returns a range query's rows.
func runOp(e executor, st store, o op) ([][]tuple.Value, error) {
	switch o.kind {
	case opQuery:
		return e.query(o.view, pred.NewRange(tuple.I(o.lo), tuple.I(o.hi), true, false))
	case opAgg:
		_, _, err := e.aggregate(o.view)
		return nil, err
	default:
		ws := make([]txWrite, len(o.writes))
		for i, w := range o.writes {
			ws[i] = txWrite{rel: w.rel, key: tuple.I(w.key), id: st[w.rel].rows[w.key].id, vals: w.vals}
		}
		ids, err := e.commit(ws)
		if err != nil {
			return nil, err
		}
		if len(ids) != len(o.writes) {
			return nil, fmt.Errorf("%w: %d ids for %d updates", errWrong, len(ids), len(o.writes))
		}
		for i, w := range o.writes {
			r := st[w.rel].rows[w.key]
			r.id, r.vals = ids[i], w.vals
		}
		return nil, nil
	}
}

// checkOp verifies one range answer for connection g: its shape (see
// below), every row of a key the connection owns against the record,
// and, for views ranged on the base key, that every owned key the view
// holds is present. A one-connection workload owns every key, so its
// answers are checked exactly.
func checkOp(g *gen, o op, rows [][]tuple.Value) error {
	if o.kind != opQuery {
		return nil
	}
	v := g.view(o.view)
	// A view ranged on its dense base key returns exactly one row per
	// key of the range. A materialized view answers from its clustered
	// file, in key order; query modification answers in the order its
	// base access path yields, which the engine does not promise to
	// sort, so only its contents are checked.
	want := -1
	if v.index < 0 {
		want = rangeWidth
	}
	if err := checkRange(rows, v.def.ViewKeyCol, o.lo, o.hi, want, v.strategy != core.QueryModification); err != nil {
		return err
	}
	keyOut := baseKeyOut(v.def)
	base := g.st[v.def.Relations[0]]
	seen := 0
	for _, r := range rows {
		k := r[keyOut].Int()
		if !g.owns(k) {
			continue
		}
		seen++
		rec := base.rows[k]
		if rec == nil {
			return fmt.Errorf("row for unknown key %d", k)
		}
		want := expectRow(v.def, g.st, rec.vals)
		if want == nil || rowKey(r) != rowKey(want) {
			return fmt.Errorf("row %v, record gives %v", r, want)
		}
	}
	if v.index < 0 && v.def.ViewKeyCol == keyOut {
		owned := 0
		for k := o.lo; k < o.hi; k++ {
			if rec := base.rows[k]; rec != nil && g.owns(k) && inView(v.def, rec.vals) {
				owned++
			}
		}
		if owned != seen {
			return fmt.Errorf("%d rows of own keys, record has %d", seen, owned)
		}
	}
	return nil
}

// baseKeyOut is the output column holding the first relation's
// clustering key (column 0).
func baseKeyOut(d core.Def) int {
	for i, c := range d.Project[0] {
		if c == 0 {
			return i
		}
	}
	return -1
}

// expectRow is the view row a base row of slot 0 contributes (nil if
// a join finds no partner).
func expectRow(d core.Def, st store, vals []tuple.Value) []tuple.Value {
	out := project(vals, d.Project[0])
	if d.Kind == core.Join {
		inner := st[d.Relations[1]].rows[vals[1].Int()]
		if inner == nil {
			return nil
		}
		out = append(out, project(inner.vals, d.Project[1])...)
	}
	return out
}

// clientExec runs operations through the viewmatd client library.
type clientExec struct{ c *client.Client }

func (e clientExec) query(view string, rg *pred.Range) ([][]tuple.Value, error) {
	return e.c.QueryView(view, rg)
}

func (e clientExec) aggregate(view string) (float64, bool, error) { return e.c.QueryAggregate(view) }

func (e clientExec) commit(ws []txWrite) ([]uint64, error) {
	tx := e.c.Begin()
	for _, w := range ws {
		tx.Update(w.rel, w.key, w.id, w.vals...)
	}
	return tx.Commit()
}

// coreExec runs operations in process against the engine.
type coreExec struct{ db *core.Database }

func (e coreExec) query(view string, rg *pred.Range) ([][]tuple.Value, error) {
	rows, err := e.db.QueryView(view, rg)
	if err != nil {
		return nil, err
	}
	out := make([][]tuple.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Vals
	}
	return out, nil
}

func (e coreExec) aggregate(view string) (float64, bool, error) { return e.db.QueryAggregate(view) }

func (e coreExec) commit(ws []txWrite) ([]uint64, error) {
	tx := e.db.Begin()
	ids := make([]uint64, 0, len(ws))
	for _, w := range ws {
		id, err := tx.Update(w.rel, w.key, w.id, w.vals...)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, tx.Commit()
}
