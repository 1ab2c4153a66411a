package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func newTestTree(t testing.TB, pageSize, poolCap int) (*Tree, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewPool(d, m, poolCap)
	tr, err := New(p, d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m
}

func mk(id uint64, k int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.S("payload"))
}

// scanTuples runs a batch scan of rg (nil = the whole tree), filling
// batches of up to size rows, and gathers the rows back into tuples —
// the view of the scan every tuple-level test and the fuzzer check.
// Small sizes make Fill stop and resume mid-leaf.
func scanTuples(t testing.TB, tr *Tree, rg *pred.Range, size int) []tuple.Tuple {
	t.Helper()
	it, err := tr.ScanBatches(rg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := it.Batches(size)
	if err != nil {
		t.Fatal(err)
	}
	return vec.Tuples(bs)
}

func TestInsertAndGet(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	for i := int64(0); i < 50; i++ {
		if err := tr.Insert(mk(uint64(i+1), i*3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d, want 50", tr.Len())
	}
	tp, ok, err := tr.Get(tuple.I(30), 11)
	if err != nil || !ok {
		t.Fatalf("Get(30,11): ok=%v err=%v", ok, err)
	}
	if tp.ID != 11 || tp.Vals[0].Int() != 30 {
		t.Errorf("Get returned %v", tp)
	}
	if _, ok, _ := tr.Get(tuple.I(31), 99); ok {
		t.Error("Get of absent key succeeded")
	}
	if _, ok, _ := tr.Get(tuple.I(30), 99); ok {
		t.Error("Get matched value with wrong id")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	if err := tr.Insert(mk(7, 5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(mk(7, 5)); err == nil {
		t.Error("duplicate (value, id) accepted")
	}
}

func TestDuplicateValuesDifferentIDs(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	for id := uint64(1); id <= 40; id++ {
		if err := tr.Insert(mk(id, 42)); err != nil {
			t.Fatalf("insert dup value id=%d: %v", id, err)
		}
	}
	got := scanTuples(t, tr, pred.PointRange(tuple.I(42)), 7)
	if len(got) != 40 {
		t.Errorf("scan found %d duplicates, want 40", len(got))
	}
	// Each individually deletable by id.
	ok, err := tr.Delete(tuple.I(42), 17)
	if err != nil || !ok {
		t.Fatalf("delete dup: ok=%v err=%v", ok, err)
	}
	if tr.Len() != 39 {
		t.Errorf("Len = %d, want 39", tr.Len())
	}
}

func TestScanOrderAfterRandomInserts(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(500)
	for i, k := range keys {
		if err := tr.Insert(mk(uint64(i+1), int64(k))); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	got := scanTuples(t, tr, nil, 64)
	if len(got) != 500 {
		t.Fatalf("scan found %d, want 500", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Vals[0].Int() > got[i].Vals[0].Int() {
			t.Fatalf("scan out of order at %d: %v then %v", i, got[i-1], got[i])
		}
	}
	if tr.Height() < 2 {
		t.Errorf("500 tuples on 200-byte pages should have split: height %d", tr.Height())
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 300; i++ {
		if err := tr.Insert(mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name   string
		rg     *pred.Range
		lo, hi int64 // inclusive expected bounds
		count  int
	}{
		{"closed", pred.NewRange(tuple.I(10), tuple.I(19), true, true), 10, 19, 10},
		{"half-open", pred.NewRange(tuple.I(10), tuple.I(20), true, false), 10, 19, 10},
		{"open-low", pred.NewRange(tuple.I(10), tuple.I(20), false, true), 11, 20, 10},
		{"point", pred.PointRange(tuple.I(150)), 150, 150, 1},
		{"past-end", pred.NewRange(tuple.I(290), tuple.I(400), true, true), 290, 299, 10},
		{"empty", pred.NewRange(tuple.I(500), tuple.I(600), true, true), 0, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := scanTuples(t, tr, tc.rg, 3)
			if len(got) != tc.count {
				t.Fatalf("count = %d, want %d", len(got), tc.count)
			}
			if tc.count > 0 {
				if got[0].Vals[0].Int() != tc.lo || got[len(got)-1].Vals[0].Int() != tc.hi {
					t.Errorf("range [%d,%d], want [%d,%d]",
						got[0].Vals[0].Int(), got[len(got)-1].Vals[0].Int(), tc.lo, tc.hi)
				}
			}
		})
	}
}

func TestDeleteThenScan(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 200; i++ {
		if err := tr.Insert(mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 200; i += 2 {
		ok, err := tr.Delete(tuple.I(i), uint64(i+1))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete(tuple.I(0), 1); ok {
		t.Error("second delete of same tuple succeeded")
	}
	got := scanTuples(t, tr, nil, vec.DefaultBatchSize)
	if len(got) != 100 {
		t.Fatalf("after deletes scan found %d, want 100", len(got))
	}
	for _, tp := range got {
		if tp.Vals[0].Int()%2 == 0 {
			t.Fatalf("deleted tuple %v still visible", tp)
		}
	}
}

func TestDeleteEntireTreeThenReinsert(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 150; i++ {
		if err := tr.Insert(mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 150; i++ {
		if ok, err := tr.Delete(tuple.I(i), uint64(i+1)); err != nil || !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if got := scanTuples(t, tr, nil, vec.DefaultBatchSize); len(got) != 0 {
		t.Errorf("scan of emptied tree found %d tuples", len(got))
	}
	// Tree must remain usable.
	for i := int64(0); i < 50; i++ {
		if err := tr.Insert(mk(uint64(1000+i), i)); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
	}
	if got := scanTuples(t, tr, nil, vec.DefaultBatchSize); len(got) != 50 {
		t.Errorf("after reinsert scan found %d, want 50", len(got))
	}
}

func TestHeightGrowth(t *testing.T) {
	tr, _ := newTestTree(t, 128, 256)
	if tr.Height() != 1 {
		t.Errorf("empty tree height = %d", tr.Height())
	}
	for i := int64(0); i < 2000; i++ {
		if err := tr.Insert(mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("2000 tuples on 128-byte pages: height = %d, want ≥ 3", tr.Height())
	}
	if lp := tr.LeafPages(); lp < 100 {
		t.Errorf("LeafPages = %d, want many", lp)
	}
}

func TestSearchChargesHeightReads(t *testing.T) {
	tr, m := newTestTree(t, 128, 256)
	for i := int64(0); i < 2000; i++ {
		if err := tr.Insert(mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Cool the cache so the descent is cold, then count reads.
	pool := tr.pool
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if _, _, err := tr.Get(tuple.I(1234), 1235); err != nil {
		t.Fatal(err)
	}
	reads := m.Snapshot().Sub(before).Reads
	if reads != int64(tr.Height()) {
		t.Errorf("cold Get charged %d reads, want height %d", reads, tr.Height())
	}
}

func TestLeafPagesChargesNothing(t *testing.T) {
	tr, m := newTestTree(t, 128, 256)
	for i := int64(0); i < 500; i++ {
		tr.Insert(mk(uint64(i+1), i))
	}
	tr.pool.EvictAll()
	before := m.Snapshot()
	tr.LeafPages()
	if diff := m.Snapshot().Sub(before); diff != (storage.Stats{}) {
		t.Errorf("LeafPages charged %v", diff)
	}
}

// leafChain returns each leaf's key values in chain order, read through
// unmetered peeks: the oracle for which leaves a scan must touch.
func leafChain(t *testing.T, tr *Tree) [][]int64 {
	t.Helper()
	pn, err := tr.leftmostLeafUncharged()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for {
		page, err := tr.file.Peek(pn)
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := decodeLeaf(page)
		if err != nil {
			t.Fatal(err)
		}
		var ks []int64
		for _, tp := range leaf.tuples {
			ks = append(ks, tp.Vals[0].Int())
		}
		out = append(out, ks)
		if !leaf.hasNext {
			return out
		}
		pn = leaf.next
	}
}

// TestRangeScanChargesDescentPlusLeaves pins the metered cost of a cold
// range scan: the descent above the leaves plus every leaf visited,
// including the one leaf read past the range to find its upper bound.
// The expected leaves come from the unmetered chain. In an insert-only
// tree each separator is its right leaf's first key, so the descent for
// a lower bound Lo lands on the last leaf whose first key sorts below
// (Lo, id 0) — for an exclusive bound, below (Lo, max id) — and the walk
// stops at the first leaf holding a key beyond Hi.
func TestRangeScanChargesDescentPlusLeaves(t *testing.T) {
	tr, m := newTestTree(t, 512, 128)
	for i := int64(0); i < 300; i++ {
		if err := tr.Insert(mk(uint64(i+1), 2*i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leafChain(t, tr)
	if len(leaves) < 6 || tr.Height() < 3 {
		t.Fatalf("fixture too small: %d leaves, height %d", len(leaves), tr.Height())
	}
	first := func(l int) int64 { return leaves[l][0] }
	last := func(l int) int64 { return leaves[l][len(leaves[l])-1] }
	closed := func(lo, hi int64, loInc, hiInc bool) *pred.Range {
		return pred.NewRange(tuple.I(lo), tuple.I(hi), loInc, hiInc)
	}
	lo3, hi2 := tuple.I(leaves[3][1]), tuple.I(leaves[2][1])
	cases := []struct {
		name string
		rg   *pred.Range
	}{
		{"mid-leaf", closed(leaves[2][1], leaves[2][len(leaves[2])-2], true, true)},
		{"start-on-first-key", closed(first(3), leaves[3][2], true, true)},
		{"end-on-last-key", closed(leaves[2][1], last(2), true, true)},
		{"end-excl-on-next-first-key", closed(leaves[2][1], first(3), true, false)},
		{"start-excl-on-last-key", closed(last(1), leaves[2][1], false, true)},
		{"span-leaves", closed(leaves[1][1], leaves[4][1], true, true)},
		{"first-to-last-key", closed(first(1), last(4), true, true)},
		{"empty-gap", closed(leaves[2][1]+1, leaves[2][1]+1, true, true)},
		{"empty-before", closed(-10, -5, true, true)},
		{"empty-after", closed(10000, 20000, true, true)},
		{"no-hi", &pred.Range{Lo: &lo3, LoInc: true}},
		{"no-lo", &pred.Range{Hi: &hi2, HiInc: true}},
		{"full-range", pred.FullRange()},
		{"nil", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := 0
			if tc.rg != nil && tc.rg.Lo != nil {
				lo := tc.rg.Lo.Int()
				for l := range leaves {
					if first(l) < lo || (!tc.rg.LoInc && first(l) == lo) {
						start = l
					}
				}
			}
			visited, rows := 0, 0
		walk:
			for l := start; l < len(leaves); l++ {
				visited++
				for _, k := range leaves[l] {
					if tc.rg != nil && tc.rg.Hi != nil {
						hi := tc.rg.Hi.Int()
						if k > hi || (k == hi && !tc.rg.HiInc) {
							break walk
						}
					}
					if tc.rg == nil || tc.rg.Contains(tuple.I(k)) {
						rows++
					}
				}
			}
			if err := tr.pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			before := m.Snapshot()
			got := scanTuples(t, tr, tc.rg, 3)
			reads := m.Snapshot().Sub(before).Reads
			if want := int64(tr.Height() - 1 + visited); reads != want {
				t.Errorf("cold scan charged %d reads, want %d (descent %d + %d leaves)",
					reads, want, tr.Height()-1, visited)
			}
			if len(got) != rows {
				t.Errorf("scan returned %d rows, want %d", len(got), rows)
			}
		})
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	tr, _ := newTestTree(t, 64, 16)
	big := tuple.New(1, tuple.I(1), tuple.S(string(make([]byte, 100))))
	if err := tr.Insert(big); err == nil {
		t.Error("oversized tuple accepted")
	}
}

func TestStringKeys(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewPool(d, storage.NewMeter(), 64)
	tr, err := New(p, d.Open("s"), 1) // cluster on column 1 (string)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"pear", "apple", "fig", "banana", "cherry", "date", "elderberry", "grape"}
	for i, w := range words {
		if err := tr.Insert(tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(w))); err != nil {
			t.Fatal(err)
		}
	}
	got := scanTuples(t, tr, nil, 3)
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i, tp := range got {
		if tp.Vals[1].Str() != want[i] {
			t.Fatalf("position %d: got %q want %q", i, tp.Vals[1].Str(), want[i])
		}
	}
}

// Property: after any interleaving of inserts and deletes, a full scan
// returns exactly the live set in sorted order.
func TestPropertyInsertDeleteScan(t *testing.T) {
	fn := func(ops []int16) bool {
		tr, _ := newTestTree(t, 160, 256)
		live := map[uint64]int64{}
		nextID := uint64(1)
		for _, op := range ops {
			k := int64(op % 64)
			if op >= 0 { // insert
				if err := tr.Insert(mk(nextID, k)); err != nil {
					return false
				}
				live[nextID] = k
				nextID++
			} else { // delete a random live tuple with this key, if any
				for id, lk := range live {
					if lk == k {
						ok, err := tr.Delete(tuple.I(k), id)
						if err != nil || !ok {
							return false
						}
						delete(live, id)
						break
					}
				}
			}
		}
		got := scanTuples(t, tr, nil, 5)
		if len(got) != len(live) {
			return false
		}
		prev := int64(-1 << 62)
		for _, tp := range got {
			k := tp.Vals[0].Int()
			if k < prev {
				return false
			}
			prev = k
			if live[tp.ID] != k {
				return false
			}
			delete(live, tp.ID)
		}
		return len(live) == 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: range scans agree with filtering a full scan.
func TestPropertyRangeScanAgreesWithFilter(t *testing.T) {
	tr, _ := newTestTree(t, 160, 256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		if err := tr.Insert(mk(uint64(i+1), int64(rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	}
	all := scanTuples(t, tr, nil, vec.DefaultBatchSize)
	fn := func(a, b int8, inc uint8) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		rg := pred.NewRange(tuple.I(lo), tuple.I(hi), inc&1 == 0, inc&2 == 0)
		got := scanTuples(t, tr, rg, 4)
		var want int
		for _, tp := range all {
			if rg.Contains(tp.Vals[0]) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr, _ := newTestTree(b, 4000, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(mk(uint64(i+1), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCold(b *testing.B) {
	tr, _ := newTestTree(b, 4000, 256)
	for i := 0; i < 100000; i++ {
		if err := tr.Insert(mk(uint64(i+1), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.pool.EvictAll()
		k := int64(i % 100000)
		if _, ok, err := tr.Get(tuple.I(k), uint64(k+1)); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

func TestTreeKeyCol(t *testing.T) {
	tr, _ := newTestTree(t, 256, 16)
	if tr.KeyCol() != 0 {
		t.Errorf("KeyCol = %d", tr.KeyCol())
	}
}
