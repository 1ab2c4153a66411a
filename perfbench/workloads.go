package main

import (
	"fmt"
	"math/rand"

	"viewmat/internal/core"
	"viewmat/internal/tuple"
)

// opKind is the class of one benchmark operation.
type opKind uint8

const (
	opQuery  opKind = iota // range query on a select-project or join view
	opAgg                  // aggregate view read
	opCommit               // update transaction
)

// write replaces the live row of rel with clustering key key by vals.
type write struct {
	rel  string
	key  int64
	vals []tuple.Value
}

// op is one generated operation. The generator fixes everything but
// tuple ids, which the executor resolves from its record when it runs
// the op, so the same op stream replays against a fresh engine.
type op struct {
	kind   opKind
	view   string
	lo, hi int64 // query range [lo, hi) on the view's clustering column
	writes []write
}

// workload is one named traffic mix: the data and views it sets up,
// its connections, each driven in a closed loop, and the operations
// each connection issues.
type workload struct {
	name string
	why  string

	conns int
	// meterOps, when > 0, limits the metered per-operation figures to
	// the window's first meterOps operations, so that a one-connection
	// workload's counts repeat exactly for a seed.
	meterOps   int
	poolFrames int
	// checkpointEvery > 0 runs the engine with a WAL and snapshot store
	// on in-memory devices, checkpointing every that many commits.
	checkpointEvery int

	// load creates and fills the base relations.
	load  func(db *core.Database, rng *rand.Rand) (store, error)
	views []*view
	// next draws a connection's next operation.
	next func(g *gen) op
}

// gen is one connection's seeded operation generator.
type gen struct {
	w     *workload
	conn  int
	rng   *rand.Rand
	st    store
	n     int // ops drawn so far
	zipfs map[string]*rand.Zipf
}

func newGen(w *workload, st store, conn int, seed int64, window int) *gen {
	src := seed*1_000_003 + int64(window)*7919 + int64(conn)
	return &gen{w: w, conn: conn, rng: rand.New(rand.NewSource(src)), st: st, zipfs: map[string]*rand.Zipf{}}
}

// owns reports whether key belongs to this connection's disjoint key
// set.
func (g *gen) owns(key int64) bool { return int(key%int64(g.w.conns)) == g.conn }

// ownKey draws a uniformly random key of this connection from [0, n).
func (g *gen) ownKey(n int64) int64 {
	c := int64(g.w.conns)
	return g.rng.Int63n(n/c)*c + int64(g.conn)
}

// zipfKey draws a key of this connection from [0, n) with Zipf(s)
// rank popularity; ranks are scattered over the key set as
// internal/workload's KeyStream scatters them.
func (g *gen) zipfKey(rel string, n int64, s float64) int64 {
	c := int64(g.w.conns)
	per := n / c
	z := g.zipfs[rel]
	if z == nil {
		z = rand.NewZipf(g.rng, s, 1, uint64(per-1))
		g.zipfs[rel] = z
	}
	return int64((z.Uint64()*2654435761)%uint64(per))*c + int64(g.conn)
}

// update is a transaction rewriting n distinct rows of rel drawn with
// key: column 1 takes a new value in [0, domain) and the string column
// new letters.
func (g *gen) update(rel string, n int, domain int64, key func() int64) op {
	seen := map[int64]bool{}
	var ws []write
	for len(ws) < n {
		k := key()
		if seen[k] {
			continue
		}
		seen[k] = true
		ws = append(ws, write{rel: rel, key: k, vals: []tuple.Value{tuple.I(k), tuple.I(g.rng.Int63n(domain)), tuple.S(pad(g.rng))}})
	}
	return op{kind: opCommit, writes: ws}
}

func (g *gen) view(name string) *view {
	for _, v := range g.w.views {
		if v.name() == name {
			return v
		}
	}
	panic("perfbench: unknown view " + name)
}

// rangeOver draws a width-wide range inside the view's restriction.
func (g *gen) rangeOver(name string, width int64) (lo, hi int64) {
	_, vlo, vhi := bounds(g.view(name).def)
	lo = vlo + g.rng.Int63n(vhi-vlo-width+1)
	return lo, lo + width
}

var rSchema = tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))

// Sizes. range-read's view covers 10k rows in about 150 pages, inside
// the default 256-frame pool; zipf-mix's base relations span about 190
// pages against a 32-frame pool. Loading costs about 60 µs a row, so
// the sizes also keep each set-up near a second.
const (
	rrRows, rrSide           = 10500, 1000
	dcRows                   = 8000
	zmRows, zmJ1, zmJ2       = 8000, 4000, 500
	rangeWidth               = 20
	zipfS                    = 1.2
	zipfTxRows               = 4
	rangeReadCommitEvery     = 16
	durableCommitProbeEvery  = 4
	durableCheckpointCommits = 2000
)

func workloads() []*workload {
	return []*workload{rangeRead(), durableCommit(), zipfMix()}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func rangeRead() *workload {
	return &workload{
		name:       "range-read",
		why:        "One connection, closed loop: 20-row range reads of a fresh deferred Model 1 view of 10k rows that fits the 256-frame pool; client codec, socket and scan path alone, no WAL or refresh",
		conns:      1,
		meterOps:   8000,
		poolFrames: 256,
		load: func(db *core.Database, rng *rand.Rand) (store, error) {
			st := store{}
			if err := load(db, st, "r", rSchema, 0, rrRows, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.I(k * 7 % 1000), tuple.S(pad(rng))}
			}); err != nil {
				return nil, err
			}
			// side carries the commit probe: it has no views, so commits
			// leave the range-read view fresh.
			if err := load(db, st, "side", rSchema, 0, rrSide, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.I(k), tuple.S(pad(rng))}
			}); err != nil {
				return nil, err
			}
			return st, nil
		},
		views: []*view{
			{def: spDef("rr", "r", 0, 250, 10250, []int{0, 1, 2}, 0), strategy: core.Deferred, index: -1, size: 10000},
		},
		next: func(g *gen) op {
			g.n++
			if g.n%rangeReadCommitEvery == 0 {
				return g.update("side", 1+g.rng.Intn(3), 1000, func() int64 { return g.ownKey(rrSide) })
			}
			lo, hi := g.rangeOver("rr", rangeWidth)
			return op{kind: opQuery, view: "rr", lo: lo, hi: hi}
		},
	}
}

// durableCommit is the WAL workload. Its WAL and snapshot store are
// in-memory devices, as files on tmpfs would be: with real files on a
// shared virtual disk the fsync-bound commit latency and throughput
// moved by 2–4× between runs minutes apart, far beyond any bound a
// regression gate could use.
func durableCommit() *workload {
	return &workload{
		name:            "durable-commit",
		why:             "Two connections, closed loop: 1-row commits with a WAL sync per commit on in-memory devices, immediate Model 1 and Model 3 views, every 4th op a read-back",
		conns:           2,
		poolFrames:      256,
		checkpointEvery: durableCheckpointCommits,
		load: func(db *core.Database, rng *rand.Rand) (store, error) {
			st := store{}
			return st, load(db, st, "d", rSchema, 0, dcRows, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.I(rng.Int63n(1000)), tuple.S(pad(rng))}
			})
		},
		views: []*view{
			{def: spDef("dv", "d", 0, 0, dcRows/2, []int{0, 1, 2}, 0), strategy: core.Immediate, index: -1, size: dcRows / 2},
			{def: sumDef("da", "d", 0, dcRows/2, 1), strategy: core.Immediate, index: -1, size: 1},
		},
		next: func(g *gen) op {
			g.n++
			// Every 4th op reads its own writes back through the view.
			if g.n%durableCommitProbeEvery == 0 {
				lo, hi := g.rangeOver("dv", rangeWidth)
				return op{kind: opQuery, view: "dv", lo: lo, hi: hi}
			}
			return g.update("d", 1, 1000, func() int64 { return g.ownKey(dcRows) })
		},
	}
}

func zipfMix() *workload {
	j1Schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("jv", tuple.Int), tuple.Col("p", tuple.String))
	j2Schema := tuple.NewSchema(tuple.Col("jv", tuple.Int), tuple.Col("info", tuple.String))
	return &workload{
		name:       "zipf-mix",
		why:        "Two connections, closed loop: 70% reads of deferred, immediate-join, aggregate and unclustered QM views beside 30% l=4 Zipf(1.2) updates; 32-frame pool, no WAL",
		conns:      2,
		poolFrames: 32,
		load: func(db *core.Database, rng *rand.Rand) (store, error) {
			st := store{}
			if err := load(db, st, "z", rSchema, 0, zmRows, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.I(rng.Int63n(zmRows)), tuple.S(pad(rng))}
			}); err != nil {
				return nil, err
			}
			if err := load(db, st, "j1", j1Schema, 0, zmJ1, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.I(rng.Int63n(zmJ2)), tuple.S(pad(rng))}
			}); err != nil {
				return nil, err
			}
			if err := load(db, st, "j2", j2Schema, 64, zmJ2, func(k int64) []tuple.Value {
				return []tuple.Value{tuple.I(k), tuple.S(pad(rng))}
			}); err != nil {
				return nil, err
			}
			return st, nil
		},
		views: []*view{
			{def: spDef("zsp", "z", 0, 0, zmRows/2, []int{0, 1}, 0), strategy: core.Deferred, index: -1, size: zmRows / 2},
			{def: joinDef("zjoin", "j1", "j2", 0, zmJ1/2), strategy: core.Immediate, index: -1, size: zmJ1 / 2},
			{def: sumDef("zagg", "z", 0, zmRows/2, 1), strategy: core.Deferred, index: -1, size: 1},
			// Query modification over the non-clustering column a, which
			// has a secondary index: the unclustered plan.
			{def: spDef("zqm", "z", 1, 0, zmRows/2, []int{1, 0}, 0), strategy: core.QueryModification, index: 1, size: zmRows / 2},
		},
		next: func(g *gen) op {
			g.n++
			if g.rng.Float64() >= 0.3 {
				switch g.rng.Intn(4) {
				case 0:
					lo, hi := g.rangeOver("zsp", rangeWidth)
					return op{kind: opQuery, view: "zsp", lo: lo, hi: hi}
				case 1:
					lo, hi := g.rangeOver("zjoin", rangeWidth)
					return op{kind: opQuery, view: "zjoin", lo: lo, hi: hi}
				case 2:
					return op{kind: opAgg, view: "zagg"}
				default:
					lo, hi := g.rangeOver("zqm", rangeWidth)
					return op{kind: opQuery, view: "zqm", lo: lo, hi: hi}
				}
			}
			// An update transaction rewrites l distinct Zipf-chosen rows
			// of one relation: a new a in z, a new join value in j1.
			rel, n, domain := "z", int64(zmRows), int64(zmRows)
			if g.rng.Intn(3) == 0 {
				rel, n, domain = "j1", zmJ1, zmJ2
			}
			return g.update(rel, zipfTxRows, domain, func() int64 { return g.zipfKey(rel, n, zipfS) })
		},
	}
}
