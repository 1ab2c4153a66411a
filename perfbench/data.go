package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// padLen is the length of every string column, which keeps stored
// tuples near 60 bytes.
const padLen = 40

// row is the generator's record of one live base tuple.
type row struct {
	id   uint64
	vals []tuple.Value
}

// table is the generator's record of one base relation, keyed by the
// clustering key. The map is filled at set-up and never resized
// afterwards; each connection writes only the rows of the keys it owns,
// so connections never touch the same row.
type table struct {
	rows map[int64]*row
}

// store is the generator's record of every base relation.
type store map[string]*table

// pad returns a deterministic string of padLen letters.
func pad(rng *rand.Rand) string {
	var b [padLen]byte
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b[:])
}

// load creates a B-tree (buckets == 0) or hash relation and inserts
// n rows made by mk(key) in one transaction, recording their ids.
func load(db *core.Database, st store, name string, schema *tuple.Schema, buckets int, n int, mk func(k int64) []tuple.Value) error {
	var err error
	if buckets == 0 {
		_, err = db.CreateRelationBTree(name, schema, 0)
	} else {
		_, err = db.CreateRelationHash(name, schema, 0, buckets)
	}
	if err != nil {
		return err
	}
	t := &table{rows: make(map[int64]*row, n)}
	tx := db.Begin()
	for k := int64(0); k < int64(n); k++ {
		vals := mk(k)
		id, err := tx.Insert(name, vals...)
		if err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
		t.rows[k] = &row{id: id, vals: vals}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("loading %s: %w", name, err)
	}
	st[name] = t
	return nil
}

// rawBytes is the size of the live user rows with no engine overhead:
// 8 bytes per integer and the length of each string.
func (st store) rawBytes() int64 {
	var n int64
	for _, t := range st {
		for _, r := range t.rows {
			for _, v := range r.vals {
				if v.Type() == tuple.String {
					n += int64(len(v.Str()))
				} else {
					n += 8
				}
			}
		}
	}
	return n
}

// view describes one view a workload queries and how to recompute its
// contents from the generator's record.
type view struct {
	def      core.Def
	strategy core.Strategy
	// index, when ≥ 0, is a column of the view's first relation that
	// gets a secondary index before the view is created.
	index int
	// size is the number of rows (≥ 1) a full recompute is expected to
	// hold at set-up, used to price the fraction a query retrieves.
	size int
}

func (v *view) name() string { return v.def.Name }

// spDef is a select-project view over rel: lo ≤ col < hi, projecting
// proj and clustered on output column keyCol.
func spDef(name, rel string, col int, lo, hi int64, proj []int, keyCol int) core.Def {
	return core.Def{
		Name: name, Kind: core.SelectProject, Relations: []string{rel},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: col, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: col, Op: pred.Lt, Val: tuple.I(hi)},
		),
		Project:    [][]int{proj},
		ViewKeyCol: keyCol,
	}
}

// sumDef is SUM(rel.aggCol) over lo ≤ key < hi.
func sumDef(name, rel string, lo, hi int64, aggCol int) core.Def {
	return core.Def{
		Name: name, Kind: core.Aggregate, Relations: []string{rel},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		),
		AggKind: agg.Sum, AggCol: aggCol,
	}
}

// joinDef is r1 ⋈ r2 on r1.c1 = r2.c0 restricted to lo ≤ r1.c0 < hi,
// projecting (r1.c0, r1.c1, r2.c1) and clustered on r1.c0.
func joinDef(name, r1, r2 string, lo, hi int64) core.Def {
	return core.Def{
		Name: name, Kind: core.Join, Relations: []string{r1, r2},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
			pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
		),
		Project:    [][]int{{0, 1}, {1}},
		ViewKeyCol: 0,
	}
}

// bounds returns the [lo, hi) restriction a view definition puts on
// column col of relation slot 0.
func bounds(d core.Def) (col int, lo, hi int64) {
	for _, a := range d.Pred.Atoms {
		c, ok := a.(pred.Cmp)
		if !ok || c.Rel != 0 {
			continue
		}
		col = c.Col
		switch c.Op {
		case pred.Ge:
			lo = c.Val.Int()
		case pred.Lt:
			hi = c.Val.Int()
		}
	}
	return col, lo, hi
}

// inView reports whether a slot-0 row satisfies the view's
// restriction.
func inView(d core.Def, vals []tuple.Value) bool {
	col, lo, hi := bounds(d)
	x := vals[col].Int()
	return x >= lo && x < hi
}

// expectRows recomputes a select-project or join view's full contents
// from the record.
func expectRows(d core.Def, st store) [][]tuple.Value {
	var out [][]tuple.Value
	for _, r := range st[d.Relations[0]].rows {
		if !inView(d, r.vals) {
			continue
		}
		if vr := expectRow(d, st, r.vals); vr != nil {
			out = append(out, vr)
		}
	}
	return out
}

// expectSum recomputes a SUM aggregate view from the record.
func expectSum(d core.Def, st store) float64 {
	var s float64
	for _, r := range st[d.Relations[0]].rows {
		if inView(d, r.vals) {
			s += r.vals[d.AggCol].AsFloat()
		}
	}
	return s
}

func project(vals []tuple.Value, cols []int) []tuple.Value {
	out := make([]tuple.Value, len(cols))
	for i, c := range cols {
		out[i] = vals[c]
	}
	return out
}

// rowKey renders a row for multiset comparison.
func rowKey(vals []tuple.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// sameRows reports whether two row lists hold the same multiset,
// describing the first difference otherwise.
func sameRows(got, want [][]tuple.Value) error {
	g := make([]string, len(got))
	for i, r := range got {
		g[i] = rowKey(r)
	}
	w := make([]string, len(want))
	for i, r := range want {
		w[i] = rowKey(r)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q, want %q", g[i], w[i])
		}
	}
	return nil
}

// checkRange verifies a range answer's shape: want rows (any number
// when want < 0), view keys inside [lo, hi) and, when ordered,
// ascending.
func checkRange(rows [][]tuple.Value, keyCol int, lo, hi int64, want int, ordered bool) error {
	if want >= 0 && len(rows) != want {
		return fmt.Errorf("%d rows, want %d", len(rows), want)
	}
	prev := int64(-1 << 62)
	for _, r := range rows {
		if keyCol >= len(r) {
			return fmt.Errorf("row %v has no column %d", r, keyCol)
		}
		k := r[keyCol].Int()
		if k < lo || k >= hi {
			return fmt.Errorf("key %d outside [%d, %d)", k, lo, hi)
		}
		if ordered && k < prev {
			return fmt.Errorf("key %d after %d: not ascending", k, prev)
		}
		prev = k
	}
	return nil
}
