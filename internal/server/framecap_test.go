package server

import (
	"bytes"
	"errors"
	"net"
	"runtime/debug"
	"strings"
	"testing"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/frame"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
)

// TestResponseAtFrameCap pins the response-size boundary over a
// net.Pipe: a query whose encoded response is exactly proto.MaxFrame
// bytes goes through, one byte more is answered with CodeTooLarge
// (client.ErrTooLarge) instead of a dropped connection, and the next
// request on the same connection succeeds.
func TestResponseAtFrameCap(t *testing.T) {
	const rowBytes = 3800 // one row per 4000-byte page
	// Every answer here is a 16 MiB multiple; collect garbage eagerly so
	// the test's peak heap stays a small multiple of that.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	db := core.NewDatabase(core.Options{PageSize: 4000, PoolFrames: 64})
	srv := New(db, Config{})
	sconn, cconn := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.handleConn(sconn)
		close(served)
	}()
	c := client.New(cconn, client.Options{})
	defer func() {
		c.Close()
		<-served
	}()

	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("s", tuple.String))
	if err := c.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(core.Def{
		Name: "v", Kind: core.SelectProject, Relations: []string{"r"},
		Project: [][]int{{0, 1}}, ViewKeyCol: 0,
	}, core.QueryModification); err != nil {
		t.Fatal(err)
	}
	// encoded is the payload size of a query answer of these rows.
	encoded := func(rows [][]tuple.Value) int {
		t.Helper()
		resp := &proto.Response{Rows: make([][]proto.ValueDTO, len(rows))}
		for i, r := range rows {
			resp.Rows[i] = proto.ValuesToDTO(r)
		}
		var buf bytes.Buffer
		if err := proto.WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		return buf.Len() - frame.HeaderSize
	}
	row := []tuple.Value{tuple.I(1 << 20), tuple.S(strings.Repeat("x", rowBytes))}
	perRow := encoded([][]tuple.Value{row, row}) - encoded([][]tuple.Value{row})
	next := int64(0)
	insertRows := func(n int) {
		t.Helper()
		for n > 0 {
			tx := c.Begin()
			for i := 0; i < min(n, 400); i++ {
				tx.Insert("r", tuple.I(next), tuple.S(strings.Repeat("x", rowBytes)))
				next++
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			n -= 400
		}
	}
	// A pad row, resized once full rows have brought the answer within
	// one row of the cap, until the answer is exactly at the cap. Its
	// length stays at or above 256, so the encoded length prefix keeps
	// its size and a resize changes the answer by exactly the delta.
	const pad, minPad = -1, 256
	tx := c.Begin()
	tx.Insert("r", tuple.I(pad), tuple.S(strings.Repeat("y", minPad)))
	ids, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	padID, padLen := ids[0], minPad
	setPad := func(n int) {
		t.Helper()
		tx := c.Begin()
		tx.Update("r", tuple.I(pad), padID, tuple.I(pad), tuple.S(strings.Repeat("y", n)))
		ids, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		padID, padLen = ids[0], n
	}
	for i := 0; ; i++ {
		rows, err := c.QueryView("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		size := encoded(rows)
		switch need := proto.MaxFrame - size; {
		case need == 0:
		case i == 8 || need < 0:
			t.Fatalf("cannot calibrate: answer of %d bytes with pad %d", size, padLen)
		case padLen+need > rowBytes:
			insertRows(max(need/perRow-1, 1))
			continue
		default:
			setPad(padLen + need)
			continue
		}
		break
	}

	setPad(padLen + 1)
	if _, err := c.QueryView("v", nil); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("response one byte over the cap: err = %v, want ErrTooLarge", err)
	}
	rows, err := c.QueryView("v", pred.PointRange(tuple.I(pad)))
	if err != nil {
		t.Fatalf("request after the oversized response: %v", err)
	}
	if len(rows) != 1 || len(rows[0][1].Str()) != padLen {
		t.Errorf("request after the oversized response returned %d rows", len(rows))
	}
}
