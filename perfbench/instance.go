package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/server"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// instance is one set-up engine, optionally served over loopback.
type instance struct {
	w  *workload
	db *core.Database
	st store

	walRAM, snapRAM *ramDevice   // nil without durability
	walDev          *timedDevice // nil unless traced with durability
	snapDev         *timedDevice
	tracing         atomic.Bool // gates the WAL device timing
	srv             *server.Server
	lis             *stampListener // nil unless traced
	addr            string
	served          chan error
	clients         []*client.Client
	closeErr        error
}

// build creates the engine: relations and indexes, bulk load, views,
// a refresh that leaves every view fresh, then durability when the
// workload has a WAL. tr non-nil times the WAL devices.
func build(w *workload, seed int64, tr *tracer) (*instance, error) {
	in := &instance{w: w}
	in.db = core.NewDatabase(core.Options{PoolFrames: w.poolFrames})
	var err error
	if in.st, err = w.load(in.db, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	for _, v := range w.views {
		if v.index >= 0 {
			if err := in.db.CreateSecondaryIndex(v.def.Relations[0], v.index); err != nil {
				return nil, err
			}
		}
		if err := in.db.CreateView(v.def, v.strategy); err != nil {
			return nil, fmt.Errorf("creating view %s: %w", v.name(), err)
		}
	}
	if err := in.db.RefreshAll(); err != nil {
		return nil, err
	}
	if w.checkpointEvery > 0 {
		if err := in.enableWAL(tr); err != nil {
			in.stop()
			return nil, err
		}
	}
	return in, nil
}

func (in *instance) enableWAL(tr *tracer) error {
	in.walRAM, in.snapRAM = &ramDevice{}, &ramDevice{}
	var walDev, snapDev storage.Device = in.walRAM, in.snapRAM
	if tr != nil {
		in.walDev = &timedDevice{Device: in.walRAM, tr: tr, on: &in.tracing, wal: true}
		in.snapDev = &timedDevice{Device: in.snapRAM, tr: tr, on: &in.tracing}
		walDev, snapDev = in.walDev, in.snapDev
	}
	return in.db.EnableDurability(walDev, snapDev, core.DurabilityOptions{CheckpointEvery: in.w.checkpointEvery})
}

// serve starts the server on a loopback listener and opens the
// workload's client connections, pinging each.
func (in *instance) serve(stamp bool) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var lis net.Listener = l
	if stamp {
		in.lis = newStampListener(l)
		lis = in.lis
	}
	in.srv = server.New(in.db, server.Config{})
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(lis) }()
	in.addr = l.Addr().String()
	for i := 0; i < in.w.conns; i++ {
		c, err := client.Dial(in.addr)
		if err != nil {
			return err
		}
		in.clients = append(in.clients, c)
		if err := c.Ping(); err != nil {
			return err
		}
	}
	return nil
}

// kill stops the server as a crash would and waits for it.
func (in *instance) kill() {
	if in.srv == nil {
		return
	}
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.Kill()
	if err := <-in.served; err != nil && in.closeErr == nil {
		in.closeErr = fmt.Errorf("serve: %w", err)
	}
	in.srv, in.clients = nil, nil
}

// stop kills the server and frees the WAL devices.
func (in *instance) stop() {
	in.kill()
	if in.walRAM != nil {
		in.walRAM.free()
		in.snapRAM.free()
	}
}

// checkViews compares every view's full contents with the answer
// recomputed from st.
func checkViews(db *core.Database, views []*view, st store) error {
	for _, v := range views {
		if v.def.Kind == core.Aggregate {
			got, _, err := db.QueryAggregate(v.name())
			if err != nil {
				return fmt.Errorf("view %s: %w", v.name(), err)
			}
			if want := expectSum(v.def, st); got != want {
				return fmt.Errorf("view %s: sum %v, recomputed %v", v.name(), got, want)
			}
			continue
		}
		rows, err := coreExec{db}.query(v.name(), nil)
		if err != nil {
			return fmt.Errorf("view %s: %w", v.name(), err)
		}
		if err := sameRows(rows, expectRows(v.def, st)); err != nil {
			return fmt.Errorf("view %s: %w", v.name(), err)
		}
	}
	return nil
}

// checkRecovery kills the server, recovers a database from what a
// crash would leave of the WAL and snapshot devices (their synced
// prefixes), and checks that every acknowledged write is present and
// that the views agree with the recovered base rows.
func (in *instance) checkRecovery() error {
	in.kill()
	walImg, err := in.walRAM.crashImage()
	if err != nil {
		return err
	}
	defer walImg.free()
	snapImg, err := in.snapRAM.crashImage()
	if err != nil {
		return err
	}
	defer snapImg.free()
	db, info, err := core.Recover(walImg, snapImg, core.DurabilityOptions{CheckpointEvery: in.w.checkpointEvery})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if info.TailDamage != "" {
		return fmt.Errorf("recover: %s log tail", info.TailDamage)
	}
	recovered := store{}
	for name, t := range in.st {
		rel, ok := db.Relation(name)
		if !ok {
			return fmt.Errorf("recovered database lacks relation %s", name)
		}
		tuples, err := rel.ScanAll()
		if err != nil {
			return err
		}
		rt := &table{rows: make(map[int64]*row, len(tuples))}
		for _, tp := range tuples {
			rt.rows[tp.Vals[0].Int()] = &row{id: tp.ID, vals: tp.Vals}
		}
		if len(rt.rows) != len(t.rows) {
			return fmt.Errorf("relation %s: %d rows recovered, %d acknowledged", name, len(rt.rows), len(t.rows))
		}
		for k, r := range t.rows {
			got := rt.rows[k]
			if got == nil || rowKey(got.vals) != rowKey(r.vals) {
				return fmt.Errorf("relation %s key %d: recovered %v, acknowledged %v", name, k, got, tuple.New(r.id, r.vals...))
			}
		}
		recovered[name] = rt
	}
	return checkViews(db, in.w.views, recovered)
}
