package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// --- client side ------------------------------------------------------------

// stampConn timestamps the first and last byte of each request's write
// and of each response's read, and counts bytes both ways.
type stampConn struct {
	net.Conn
	firstWrite, writeEnd time.Time
	firstRead, lastRead  time.Time
	wBytes, rBytes       int64
}

func (c *stampConn) reset() {
	c.firstWrite, c.writeEnd, c.firstRead, c.lastRead = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	c.wBytes, c.rBytes = 0, 0
}

func (c *stampConn) Write(p []byte) (int, error) {
	if c.firstWrite.IsZero() {
		c.firstWrite = time.Now()
	}
	n, err := c.Conn.Write(p)
	c.writeEnd = time.Now()
	c.wBytes += int64(n)
	return n, err
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		if c.firstRead.IsZero() {
			c.firstRead = now
		}
		c.lastRead = now
		c.rBytes += int64(n)
	}
	return n, err
}

// clientCall is the client-side timing of one traced request.
type clientCall struct {
	root                       int   // id of the client.request span
	req                        int64 // request id shared by its spans
	encode, ttfb, ttlb, decode time.Duration
	reqBytes, respBytes        int64
}

// tracedExec speaks the wire protocol itself, with proto.WriteRequest
// and proto.ReadResponse on its own connection, so each request splits
// into encode, write, wait for the first byte, read to the last byte
// and decode.
type tracedExec struct {
	conn  *stampConn
	tr    *tracer
	reqID *atomic.Int64
	calls []clientCall
}

func dialTraced(addr string, tr *tracer, reqID *atomic.Int64) (*tracedExec, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tracedExec{conn: &stampConn{Conn: c}, tr: tr, reqID: reqID}, nil
}

func (e *tracedExec) close() { e.conn.Close() }

// call sends req and decodes its response with decode, recording the
// request's spans.
func (e *tracedExec) call(req *proto.Request, decode func(*proto.Response)) error {
	c := e.conn
	c.reset()
	t0 := time.Now()
	c.SetDeadline(t0.Add(30 * time.Second))
	if err := proto.WriteRequest(c, req); err != nil {
		return fmt.Errorf("sending %v: %w", req.Op, err)
	}
	resp, err := proto.ReadResponse(c)
	if err != nil {
		return fmt.Errorf("reading %v response: %w", req.Op, err)
	}
	switch resp.Code {
	case proto.CodeOK:
		decode(resp)
	case proto.CodeBusy:
		err = client.ErrBusy
	default:
		err = errors.New(resp.Err)
	}
	t2 := time.Now()

	id := e.reqID.Add(1)
	root := e.tr.add("client.request", id, 0, t0, t2)
	e.tr.add("client.encode", id, root, t0, c.firstWrite)
	e.tr.add("client.write", id, root, c.firstWrite, c.writeEnd)
	e.tr.add("client.read", id, root, c.firstRead, c.lastRead)
	e.tr.add("client.decode", id, root, c.lastRead, t2)
	e.calls = append(e.calls, clientCall{
		root: root, req: id,
		encode: c.firstWrite.Sub(t0), ttfb: c.firstRead.Sub(c.writeEnd),
		ttlb: c.lastRead.Sub(c.firstRead), decode: t2.Sub(c.lastRead),
		reqBytes: c.wBytes, respBytes: c.rBytes,
	})
	return err
}

func (e *tracedExec) query(view string, rg *pred.Range) ([][]tuple.Value, error) {
	var rows [][]tuple.Value
	err := e.call(&proto.Request{Op: proto.OpQueryView, Name: view, Range: proto.RangeToDTO(rg), Plan: -1}, func(r *proto.Response) {
		rows = make([][]tuple.Value, len(r.Rows))
		for i, vals := range r.Rows {
			rows[i] = proto.ValuesFromDTO(vals)
		}
	})
	return rows, err
}

func (e *tracedExec) aggregate(view string) (float64, bool, error) {
	var v float64
	var ok bool
	err := e.call(&proto.Request{Op: proto.OpQueryAggregate, Name: view}, func(r *proto.Response) { v, ok = r.Agg, r.AggOK })
	return v, ok, err
}

func (e *tracedExec) commit(ws []txWrite) ([]uint64, error) {
	ops := make([]proto.TxOpDTO, len(ws))
	for i, w := range ws {
		ops[i] = proto.TxOpDTO{Kind: proto.TxUpdate, Rel: w.rel, Key: proto.ValueToDTO(w.key), ID: w.id, Vals: proto.ValuesToDTO(w.vals)}
	}
	var ids []uint64
	err := e.call(&proto.Request{Op: proto.OpCommit, TxOps: ops}, func(r *proto.Response) { ids = r.IDs })
	return ids, err
}

// --- server side ------------------------------------------------------------

// window is one server-side request: its last request byte read and
// its first response byte written.
type window struct{ lastRead, firstWrite time.Time }

// stampListener wraps the server's listener so that each accepted
// connection records its request windows, keyed by the peer address.
type stampListener struct {
	net.Listener
	on atomic.Bool

	mu      sync.Mutex
	windows map[string][]window
}

func newStampListener(l net.Listener) *stampListener {
	return &stampListener{Listener: l, windows: map[string][]window{}}
}

func (l *stampListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, l: l, peer: c.RemoteAddr().String()}, nil
}

func (l *stampListener) record(peer string, w window) {
	l.mu.Lock()
	l.windows[peer] = append(l.windows[peer], w)
	l.mu.Unlock()
}

func (l *stampListener) take(peer string) []window {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.windows[peer]
}

// serverConn is one server connection. Requests and responses strictly
// alternate on it, so the first write after a read starts the response
// to the request that read ended. Only the connection's own handler
// goroutine reads and writes it.
type serverConn struct {
	net.Conn
	l        *stampListener
	peer     string
	lastRead time.Time
	replying bool
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead = time.Now()
		c.replying = false
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	if !c.replying {
		c.replying = true
		if c.l.on.Load() {
			c.l.record(c.peer, window{lastRead: c.lastRead, firstWrite: time.Now()})
		}
	}
	return c.Conn.Write(p)
}

// --- WAL devices ------------------------------------------------------------

// timedDevice times the writes and syncs the engine makes on a WAL or
// snapshot device. On the snapshot device, a checkpoint runs from its
// first write to the sync that ends it.
type timedDevice struct {
	storage.Device
	tr  *tracer
	on  *atomic.Bool
	wal bool // the log; otherwise the snapshot store

	mu           sync.Mutex
	bytes        int64
	ckptStart    time.Time
	snapSize     int64
	lastSnapshot int64
}

func (d *timedDevice) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := d.Device.WriteAt(p, off)
	if !d.on.Load() {
		return n, err
	}
	t1 := time.Now()
	d.mu.Lock()
	d.bytes += int64(n)
	if !d.wal {
		if d.ckptStart.IsZero() {
			d.ckptStart = t0
		}
		d.snapSize += int64(n)
	}
	d.mu.Unlock()
	if d.wal {
		d.tr.add("wal.append", 0, 0, t0, t1)
	}
	return n, err
}

func (d *timedDevice) Sync() error {
	t0 := time.Now()
	err := d.Device.Sync()
	if !d.on.Load() {
		return err
	}
	t1 := time.Now()
	if d.wal {
		d.tr.add("wal.sync", 0, 0, t0, t1)
		return err
	}
	d.mu.Lock()
	start := d.ckptStart
	if !start.IsZero() {
		d.lastSnapshot, d.snapSize, d.ckptStart = d.snapSize, 0, time.Time{}
	}
	d.mu.Unlock()
	if !start.IsZero() {
		d.tr.add("wal.checkpoint", 0, 0, start, t1)
	}
	return err
}
