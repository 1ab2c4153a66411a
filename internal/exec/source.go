package exec

import (
	"fmt"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Scan streams a clustered B+-tree range scan of a base relation (the
// Model-1 "clustered" plan and every restricted outer scan). A nil
// range scans the whole clustering order. Leaves decode straight into
// the batch's column lanes (no intermediate tuples); each batch fill is
// one bracketed run of the iterator, so the page reads land on this
// operator exactly as the per-row brackets did.
type Scan struct {
	base
	rel  *relation.Relation
	rg   *pred.Range
	it   *btree.BatchIterator
	size int
}

// NewScan builds a clustered range scan.
func NewScan(o Options, rel *relation.Relation, rg *pred.Range) *Scan {
	return &Scan{base: base{meter: o.Meter}, rel: rel, rg: rg, size: o.size()}
}

func (s *Scan) Open() error {
	return s.bracket(func() error {
		it, err := s.rel.IterBatches(s.rg, nil)
		s.it = it
		return err
	})
}

func (s *Scan) NextBatch() (*vec.Batch, error) {
	if s.it.Done() {
		return nil, nil
	}
	b := &vec.Batch{}
	if err := s.bracket(func() error { return s.it.Fill(b, s.size) }); err != nil {
		return nil, err
	}
	if b.NumRows() == 0 {
		return nil, nil
	}
	return s.emitBatch(b), nil
}

func (s *Scan) Close() error         { return nil }
func (s *Scan) Children() []Operator { return nil }
func (s *Scan) Stats() OpStats       { return s.stats() }
func (s *Scan) Describe() string {
	return fmt.Sprintf("Scan(%s%s)", s.rel.Name(), rangeSuffix(s.rg))
}

// BatchSource is a leaf that loads its whole output as buffered batches
// at Open, inside the bracket, so every page read it makes is
// attributed here and the pool activity is ordered exactly as one
// whole read orders it. NewSeqScan makes it the sequential plan — every
// tuple of a relation, and the only clustered access path a hash
// relation offers — with pages decoded straight into columnar batches.
// Prune atoms, when set, let that scan skip pages whose zone maps
// disprove the downstream predicate; skipped pages are never charged
// and are reported via Stats().Pruned. NewIndexFetch and NewBatchSource
// serve the other whole-read leaves.
type BatchSource struct {
	base
	label  string
	load   func(size int) ([]*vec.Batch, int64, error)
	bufs   []*vec.Batch
	i      int
	size   int
	pruned int64
}

// NewBatchSource builds a leaf over load, which runs bracketed at Open
// and returns the leaf's whole output in batches of up to size rows —
// so plan-time work such as reading a materialized view or fetching HR
// net changes is attributed to the tree that consumes it.
func NewBatchSource(o Options, label string, load func(size int) ([]*vec.Batch, error)) *BatchSource {
	return &BatchSource{base: base{meter: o.Meter}, label: label, size: o.size(),
		load: func(size int) ([]*vec.Batch, int64, error) {
			bufs, err := load(size)
			return bufs, 0, err
		}}
}

// NewSeqScan builds a full sequential scan.
func NewSeqScan(o Options, rel *relation.Relation) *BatchSource {
	return NewSeqScanPruned(o, rel, nil)
}

// NewSeqScanPruned builds a full sequential scan that may skip pages
// the prune atoms' zone maps disprove. The caller must only pass atoms
// entailed by the predicate it will apply to the scan's output.
func NewSeqScanPruned(o Options, rel *relation.Relation, prune []colpage.Atom) *BatchSource {
	return &BatchSource{base: base{meter: o.Meter}, label: fmt.Sprintf("SeqScan(%s)", rel.Name()), size: o.size(),
		load: func(size int) ([]*vec.Batch, int64, error) {
			return rel.ScanAllBatches(size, prune)
		}}
}

// NewIndexFetch builds a fetch through rel's unclustered secondary
// index on col over rg: a pointer-entry range scan followed by one
// clustered fetch per pointer — the random-page behaviour the paper
// prices with y(N, b, ·).
func NewIndexFetch(o Options, rel *relation.Relation, col int, rg *pred.Range) *BatchSource {
	label := fmt.Sprintf("IndexFetch(%s.%d%s)", rel.Name(), col, rangeSuffix(rg))
	return NewBatchSource(o, label, func(size int) ([]*vec.Batch, error) {
		tps, err := rel.LookupSecondary(col, rg)
		return vec.FromTuples(tps, false, size), err
	})
}

func (s *BatchSource) Open() error {
	s.i = 0
	return s.bracket(func() error {
		bufs, pruned, err := s.load(s.size)
		s.bufs, s.pruned = bufs, pruned
		return err
	})
}

func (s *BatchSource) NextBatch() (*vec.Batch, error) {
	if s.i >= len(s.bufs) {
		return nil, nil
	}
	b := s.bufs[s.i]
	s.i++
	return s.emitBatch(b), nil
}

func (s *BatchSource) Close() error         { s.bufs = nil; return nil }
func (s *BatchSource) Children() []Operator { return nil }
func (s *BatchSource) Stats() OpStats {
	st := s.stats()
	st.Pruned = s.pruned
	return st
}
func (s *BatchSource) Describe() string { return s.label }

// DeltaSource streams a transaction's (or epoch's) net change sets as
// rows with polarity: the A set first (Insert=true), then the D set.
type DeltaSource struct {
	base
	label      string
	adds, dels []tuple.Tuple
	i          int
	size       int
}

// NewDeltaSource builds a delta stream labeled for plan rendering.
func NewDeltaSource(o Options, label string, adds, dels []tuple.Tuple) *DeltaSource {
	return &DeltaSource{label: label, adds: adds, dels: dels, size: o.size()}
}

func (s *DeltaSource) Open() error { return nil }

func (s *DeltaSource) NextBatch() (*vec.Batch, error) {
	total := len(s.adds) + len(s.dels)
	if s.i >= total {
		return nil, nil
	}
	b := &vec.Batch{}
	for s.i < total {
		var r Row
		if s.i < len(s.adds) {
			r = Row{T0: s.adds[s.i], Insert: true}
		} else {
			r = Row{T0: s.dels[s.i-len(s.adds)]}
		}
		if !appendRow(b, r, s.size) {
			break
		}
		s.i++
	}
	return s.emitBatch(b), nil
}

func (s *DeltaSource) Close() error         { return nil }
func (s *DeltaSource) Children() []Operator { return nil }
func (s *DeltaSource) Stats() OpStats       { return s.stats() }
func (s *DeltaSource) Describe() string {
	return fmt.Sprintf("DeltaSource(%s a=%d d=%d)", s.label, len(s.adds), len(s.dels))
}

// Seq streams each input in order, opening an input only when the
// previous one is exhausted. It serves two roles: concatenating
// sources (pending HR adds ahead of a base scan) and sequencing the
// phases of a multi-pipeline refresh plan — lazy opening is what keeps
// a later phase's side effects from running before an earlier phase's
// rows have been applied.
type Seq struct {
	base
	label  string
	inputs []Operator
	i      int
	opened bool
}

// NewSeq builds an ordered concatenation/sequence of inputs.
func NewSeq(label string, inputs ...Operator) *Seq {
	return &Seq{label: label, inputs: inputs}
}

func (s *Seq) Open() error { return nil }

func (s *Seq) NextBatch() (*vec.Batch, error) {
	for {
		if s.i >= len(s.inputs) {
			return nil, nil
		}
		in := s.inputs[s.i]
		if !s.opened {
			if err := in.Open(); err != nil {
				return nil, err
			}
			s.opened = true
		}
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return s.emitBatch(b), nil
		}
		if err := in.Close(); err != nil {
			return nil, err
		}
		s.i++
		s.opened = false
	}
}

func (s *Seq) Close() error {
	if s.opened && s.i < len(s.inputs) {
		s.opened = false
		return s.inputs[s.i].Close()
	}
	return nil
}

func (s *Seq) Children() []Operator { return s.inputs }
func (s *Seq) Stats() OpStats       { return s.stats() }
func (s *Seq) Describe() string     { return fmt.Sprintf("Seq(%s)", s.label) }

// rangeSuffix renders a scan range for plan display.
func rangeSuffix(rg *pred.Range) string {
	if rg == nil {
		return ""
	}
	lo, hi := "-inf", "+inf"
	lob, hib := "[", "]"
	if rg.Lo != nil {
		lo = rg.Lo.String()
		if !rg.LoInc {
			lob = "("
		}
	}
	if rg.Hi != nil {
		hi = rg.Hi.String()
		if !rg.HiInc {
			hib = ")"
		}
	}
	return fmt.Sprintf(" %s%s,%s%s", lob, lo, hi, hib)
}
