package main

import (
	"errors"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// fakeExec answers from a script indexed by call number.
type fakeExec struct {
	calls  int
	answer func(call int, rg *pred.Range) ([][]tuple.Value, error)
}

func (e *fakeExec) query(_ string, rg *pred.Range) ([][]tuple.Value, error) {
	e.calls++
	return e.answer(e.calls, rg)
}

func (e *fakeExec) aggregate(string) (float64, bool, error) {
	_, err := e.query("", nil)
	return 0, true, err
}

func (e *fakeExec) commit([]txWrite) ([]uint64, error) { return nil, errors.New("unused") }

// testInstance is a one-view workload over a 100-row record, with an
// empty engine standing in for the server's (only its meter is read).
func testInstance(next func(g *gen) op) *instance {
	st := store{"t": &table{rows: map[int64]*row{}}}
	for k := int64(0); k < 100; k++ {
		st["t"].rows[k] = &row{id: uint64(k), vals: []tuple.Value{tuple.I(k), tuple.I(k * 2)}}
	}
	w := &workload{
		name: "test", conns: 1, next: next,
		views: []*view{{def: spDef("v", "t", 0, 0, 100, []int{0, 1}, 0), strategy: core.Deferred, index: -1, size: 100}},
	}
	return &instance{w: w, db: core.NewDatabase(core.Options{}), st: st}
}

// rightRows answers a range query on v from the test record.
func rightRows(rg *pred.Range) [][]tuple.Value {
	var out [][]tuple.Value
	for k := rg.Lo.Int(); k < rg.Hi.Int(); k++ {
		out = append(out, []tuple.Value{tuple.I(k), tuple.I(k * 2)})
	}
	return out
}

func TestWindowClassifiesFailures(t *testing.T) {
	in := testInstance(func(g *gen) op {
		lo, hi := g.rangeOver("v", rangeWidth)
		return op{kind: opQuery, view: "v", lo: lo, hi: hi}
	})
	e := &fakeExec{answer: func(call int, rg *pred.Range) ([][]tuple.Value, error) {
		time.Sleep(200 * time.Microsecond)
		switch call % 4 {
		case 1:
			return nil, client.ErrBusy
		case 2:
			return nil, errors.New("engine failure")
		case 3:
			rows := rightRows(rg)
			rows[3][1] = tuple.I(-1) // a wrong payload
			return rows, nil
		}
		return rightRows(rg), nil
	}}
	ws := runWindow(in, []executor{e}, 1, 0, 50*time.Millisecond, false)
	c := ws.cnt
	if c.attempted != e.calls || c.attempted < 8 {
		t.Fatalf("attempted %d of %d calls", c.attempted, e.calls)
	}
	byClass := func(r int) int { return (e.calls - r + 4) / 4 }
	if c.busy != byClass(1) || c.errors != byClass(2) || c.wrong != byClass(3) {
		t.Errorf("busy %d errors %d wrong %d; want %d %d %d", c.busy, c.errors, c.wrong, byClass(1), byClass(2), byClass(3))
	}
	if ok := ws.query.summarize().n; ok != c.attempted-c.failed() {
		t.Errorf("%d latency samples for %d successes", ok, c.attempted-c.failed())
	}
	if !errors.Is(ws.firstErr, client.ErrBusy) {
		t.Errorf("first failure = %v, want the busy refusal", ws.firstErr)
	}
}

func TestCheckOpRejectsMisorderedAndMissingRows(t *testing.T) {
	in := testInstance(nil)
	g := newGen(in.w, in.st, 0, 1, 0)
	o := op{kind: opQuery, view: "v", lo: 10, hi: 30}
	rows := rightRows(pred.NewRange(tuple.I(10), tuple.I(30), true, false))
	if err := checkOp(g, o, rows); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	swapped := append([][]tuple.Value(nil), rows...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if checkOp(g, o, swapped) == nil {
		t.Error("descending keys accepted")
	}
	if checkOp(g, o, rows[:19]) == nil {
		t.Error("19 rows accepted")
	}
	outside := append([][]tuple.Value{{tuple.I(9), tuple.I(18)}}, rows[1:]...)
	if checkOp(g, o, outside) == nil {
		t.Error("key outside the range accepted")
	}
}
