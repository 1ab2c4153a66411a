package core

import (
	"errors"
	"fmt"

	"viewmat/internal/costmodel"
	"viewmat/internal/exec"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// View hierarchies: views defined over other views, maintained in the
// DBToaster style ([AhKo12], PAPERS.md) — a parent's differential
// refresh appends the rows it applied to a per-view delta log, and each
// child view replays the unseen suffix of that log through its own
// apply pipeline instead of recomputing from the parent. The log is a
// higher-order delta: it was already screened, projected and
// duplicate-counted by the parent, so a child consumes it exactly as it
// would a base-relation net-change stream, except that polarity order
// must be preserved (see exec.ViewDeltaScan).
//
// The hierarchy is a DAG by construction: CreateView requires parents
// to exist, and the batch API CreateViews topologically orders forward
// references and rejects cycles. Children are restricted to
// single-source kinds (select-project, scalar aggregate, grouped
// aggregate) over materialized parents; join views always read base
// relations.

// Typed hierarchy DDL errors. DDL over views fails with one of these
// (wrapped with context), never a panic — FuzzHierarchyDDL pins that.
var (
	// ErrUnknownSource marks a definition referencing a name that is
	// neither a base relation nor an existing view (dangling parents,
	// self-references outside a batch).
	ErrUnknownSource = errors.New("core: view references unknown source")
	// ErrParentNotMaterialized rejects children over query-modification
	// parents: a QM view has no stored rows and therefore no deltas.
	ErrParentNotMaterialized = errors.New("core: parent view is not materialized")
	// ErrParentScalar rejects children over scalar aggregate views;
	// their single value lives in an agg page, not a row store.
	ErrParentScalar = errors.New("core: scalar aggregate view cannot be a parent")
	// ErrChildJoin rejects join views over views: the delta expansion
	// of §2.1 is defined against base relations.
	ErrChildJoin = errors.New("core: join views cannot be defined over views")
	// ErrHierarchyCycle rejects a CreateViews batch whose definitions
	// form a dependency cycle.
	ErrHierarchyCycle = errors.New("core: view definitions form a cycle")
	// ErrHasChildren rejects dropping a view other views are defined
	// over.
	ErrHasChildren = errors.New("core: view has dependent child views")
	// ErrDuplicateView marks a name collision: two definitions in one
	// batch, or a definition colliding with the live catalog.
	ErrDuplicateView = errors.New("core: duplicate view name")
	// ErrStrategyConflict rejects a base relation feeding both a
	// deferred view and a strategy that reads base files at its own
	// cadence (see CreateView).
	ErrStrategyConflict = errors.New("core: conflicting refresh strategies over one relation")
)

// viewDelta is one logged parent-delta entry: the applied output row
// and its polarity, in application order.
type viewDelta struct {
	vals   []tuple.Value
	insert bool
}

// ViewSpec pairs a definition with its maintenance strategy for the
// batch DDL API.
type ViewSpec struct {
	Def      Def
	Strategy Strategy
}

// CreateViews registers a batch of views that may reference each other
// in any order: definitions are topologically sorted so parents are
// created before children, and a dependency cycle fails the whole
// batch with ErrHierarchyCycle before anything is registered. A
// mid-batch failure leaves the views already created in place.
func (db *Database) CreateViews(specs []ViewSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	order, err := topoSpecOrder(specs)
	if err != nil {
		return err
	}
	for _, i := range order {
		if err := db.createViewLocked(specs[i].Def, specs[i].Strategy); err != nil {
			return err
		}
	}
	return nil
}

// topoSpecOrder orders the batch parents-first by depth-first search
// over intra-batch references. Names not in the batch resolve against
// the live catalog later; a grey-node revisit is a cycle.
func topoSpecOrder(specs []ViewSpec) ([]int, error) {
	idx := make(map[string]int, len(specs))
	for i, sp := range specs {
		if _, dup := idx[sp.Def.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate view %q in batch", ErrDuplicateView, sp.Def.Name)
		}
		idx[sp.Def.Name] = i
	}
	const (
		white = iota
		grey
		black
	)
	state := make([]int, len(specs))
	order := make([]int, 0, len(specs))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case grey:
			return fmt.Errorf("%w: via %q", ErrHierarchyCycle, specs[i].Def.Name)
		case black:
			return nil
		}
		state[i] = grey
		for _, rn := range specs[i].Def.Relations {
			if j, ok := idx[rn]; ok {
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		state[i] = black
		order = append(order, i)
		return nil
	}
	for i := range specs {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checkHierarchyLocked resolves a definition's sources and validates
// the hierarchy constraints. It returns the parent view state when the
// definition is a child view, nil when it reads only base relations.
func (db *Database) checkHierarchyLocked(def Def) (*viewState, error) {
	viewParent := false
	for _, rn := range def.Relations {
		if _, ok := db.rels[rn]; ok {
			continue
		}
		if _, ok := db.views[rn]; ok {
			viewParent = true
			continue
		}
		return nil, fmt.Errorf("%w: view %q references %q", ErrUnknownSource, def.Name, rn)
	}
	if !viewParent {
		return nil, nil
	}
	if len(def.Relations) != 1 || def.Kind == Join {
		return nil, fmt.Errorf("%w: view %q", ErrChildJoin, def.Name)
	}
	p := db.views[def.Relations[0]]
	if p.def.Kind == Aggregate {
		return nil, fmt.Errorf("%w: view %q over %q", ErrParentScalar, def.Name, p.def.Name)
	}
	if p.mat == nil && p.groups == nil {
		return nil, fmt.Errorf("%w: view %q over %q", ErrParentNotMaterialized, def.Name, p.def.Name)
	}
	return p, nil
}

// parentOf returns the parent view state of a child view, nil for
// views over base relations. Caller holds db.mu.
func (db *Database) parentOf(vs *viewState) *viewState {
	if len(vs.def.Relations) != 1 {
		return nil
	}
	rn := vs.def.Relations[0]
	if _, ok := db.rels[rn]; ok {
		return nil
	}
	return db.views[rn]
}

// baseRelsOfLocked computes the base relations a definition
// transitively depends on. Parents are registered before children, so
// a child copies its parent's already-computed set.
func (db *Database) baseRelsOfLocked(def Def) []string {
	if len(def.Relations) == 1 {
		if _, ok := db.rels[def.Relations[0]]; !ok {
			if p, ok := db.views[def.Relations[0]]; ok {
				return append([]string(nil), p.baseRels...)
			}
		}
	}
	return append([]string(nil), def.Relations...)
}

// rebuildChildrenLocked recomputes the parent→children adjacency from
// the catalog. Child lists inherit viewNamesLocked's sorted order.
func (db *Database) rebuildChildrenLocked() {
	db.children = map[string][]string{}
	for _, n := range db.viewNamesLocked() {
		vs := db.views[n]
		if p := db.parentOf(vs); p != nil {
			db.children[p.def.Name] = append(db.children[p.def.Name], n)
		}
	}
}

// viewDepth is the number of view edges between vs and its base
// relations: 0 for base views, 1 for their children, and so on.
func (db *Database) viewDepth(vs *viewState) int {
	d := 0
	for p := db.parentOf(vs); p != nil; p = db.parentOf(p) {
		d++
	}
	return d
}

// childLevelsLocked returns every child view name grouped by depth,
// ascending, names sorted within a level — the topological order
// RefreshAll's hierarchy pass and the immediate cascade walk.
func (db *Database) childLevelsLocked() [][]string {
	byDepth := map[int][]string{}
	maxD := 0
	for _, n := range db.viewNamesLocked() {
		vs := db.views[n]
		d := db.viewDepth(vs)
		if d == 0 {
			continue
		}
		byDepth[d] = append(byDepth[d], n)
		if d > maxD {
			maxD = d
		}
	}
	levels := make([][]string, 0, maxD)
	for d := 1; d <= maxD; d++ {
		levels = append(levels, byDepth[d])
	}
	return levels
}

// childPending reports whether the parent's delta log holds entries
// this child has not consumed (or the parent's log restarted under a
// recompute, which obliges the child to recompute too).
func (db *Database) childPending(vs *viewState) bool {
	p := db.parentOf(vs)
	if p == nil {
		return false
	}
	return vs.parentGen != p.logGen || vs.parentPos < p.logStart+int64(len(p.deltaLog))
}

// parentTuples materializes the parent's current logical contents as
// id-less tuples: duplicate-expanded matview rows, or one (group,
// value) tuple per live group for grouped-aggregate parents.
func (db *Database) parentTuples(p *viewState) ([]tuple.Tuple, error) {
	if p.mat != nil {
		stored, err := p.mat.Scan(nil)
		if err != nil {
			return nil, err
		}
		var tps []tuple.Tuple
		for _, r := range stored {
			for i := int64(0); i < r.Count; i++ {
				tps = append(tps, tuple.Tuple{Vals: r.Vals})
			}
		}
		return tps, nil
	}
	if p.groups != nil {
		all, err := p.groups.rel.ScanAll()
		if err != nil {
			return nil, err
		}
		var tps []tuple.Tuple
		for _, tp := range all {
			s := stateOf(p.def.AggKind, tp)
			v, ok := s.Value()
			if !ok {
				continue
			}
			tps = append(tps, tuple.Tuple{Vals: []tuple.Value{tp.Vals[0], tuple.F(v)}})
		}
		return tps, nil
	}
	return nil, fmt.Errorf("core: view %q has no materialization to read", p.def.Name)
}

// parentScanOp is the charged scan of a parent view's contents — the
// child-side analogue of baseSource — emitting them as inserts. The
// read runs bracketed at Open, so the parent-store reads land on this
// node.
func (db *Database) parentScanOp(p *viewState) exec.Operator {
	return exec.NewBatchSource(db.execOpts(), fmt.Sprintf("ParentScan(%s)", p.def.Name), func(size int) ([]*vec.Batch, error) {
		tps, err := db.parentTuples(p)
		return vec.FromTuples(tps, true, size), err
	})
}

// sourceFor is the slot's row source: the parent scan for child views,
// baseSource (clustered-restricted or sequential) otherwise.
func (db *Database) sourceFor(vs *viewState, slot int) exec.Operator {
	if p := db.parentOf(vs); p != nil {
		return db.parentScanOp(p)
	}
	return db.baseSource(vs, slot)
}

// viewDeltaRows converts logged entries to executor rows, preserving
// application order and polarity.
func viewDeltaRows(entries []viewDelta) []exec.Row {
	rows := make([]exec.Row, len(entries))
	for i, e := range entries {
		rows[i] = exec.Row{T0: tuple.Tuple{Vals: e.vals}, Insert: e.insert}
	}
	return rows
}

// childApplyTree wires a delta source into the child's apply pipeline —
// the same screen/project/apply trees base-relation refresh uses, fed
// from the parent's log instead of an AD file.
func (db *Database) childApplyTree(vs *viewState, src exec.Operator) (exec.Operator, error) {
	switch vs.def.Kind {
	case SelectProject:
		return db.spRefreshTree(vs, src), nil
	case Aggregate:
		return db.aggRefreshTree(vs, src), nil
	case GroupedAggregate:
		return db.groupAggRefreshTree(vs, src), nil
	}
	return nil, fmt.Errorf("core: view %q: kind cannot be maintained over a view", vs.def.Name)
}

// childDrainEstimateLocked assembles the drain-vs-recompute estimate
// for maintaining one child from deltaRows pending log entries.
func (db *Database) childDrainEstimateLocked(parent *viewState, deltaRows int) costmodel.HierarchyDeltaEstimate {
	est := costmodel.HierarchyDeltaEstimate{DeltaRows: deltaRows, Children: 1}
	if parent.mat != nil {
		est.ParentRows = parent.mat.DistinctRows()
		est.ParentPages = float64(parent.mat.Pages())
	} else if parent.groups != nil {
		est.ParentRows = parent.groups.rel.Len()
		est.ParentPages = float64(parent.groups.rel.Pages())
	}
	return est
}

// drainChildLocked brings one child current against its parent's delta
// log: replay the unseen suffix through the child's apply tree, or
// recompute when the log restarted (generation bump) or the cost model
// says a fresh scan of the parent is cheaper. The consumed position
// advances only after a successful apply, so a failed drain leaves the
// child unchanged and still pending — retrying converges. Caller holds
// the write lock; the parent must already be fresh.
func (db *Database) drainChildLocked(vs, parent *viewState) error {
	if db.hierarchyFail != nil {
		if err := db.hierarchyFail(vs.def.Name); err != nil {
			return err
		}
	}
	if vs.parentGen != parent.logGen || vs.parentPos < parent.logStart {
		return db.recomputeView(vs)
	}
	end := parent.logStart + int64(len(parent.deltaLog))
	if vs.parentPos >= end {
		return nil
	}
	pending := parent.deltaLog[vs.parentPos-parent.logStart:]
	if !db.childDrainEstimateLocked(parent, len(pending)).Drain(costmodel.Default()) {
		return db.recomputeView(vs)
	}
	src := exec.NewViewDeltaScan(db.execOpts(), parent.def.Name, viewDeltaRows(pending))
	tree, err := db.childApplyTree(vs, src)
	if err != nil {
		return err
	}
	if err := db.runPlan(vs, PlanPathRefresh, tree); err != nil {
		return err
	}
	vs.parentPos = end
	vs.parentGen = parent.logGen
	vs.refreshes++
	return nil
}

// refreshChildStaleLocked is refreshStaleLocked for child views: make
// the parent fresh first (recursively, so depth-3 chains converge),
// then apply the child's own strategy — drain for the differential
// strategies, threshold-gated recompute for snapshot/on-demand,
// nothing for query modification (it reads the parent live).
func (db *Database) refreshChildStaleLocked(vs, parent *viewState) error {
	if db.viewStale(parent) {
		if err := db.refreshStaleLocked(parent); err != nil {
			return err
		}
	}
	switch vs.strategy {
	case Snapshot, RecomputeOnDemand:
		return db.maybeRefreshExtra(vs)
	case QueryModification:
		return nil
	}
	if !db.childPending(vs) {
		return nil
	}
	if err := db.inPhase(PhaseDefRefresh, func() error { return db.drainChildLocked(vs, parent) }); err != nil {
		return err
	}
	db.compactDeltaLogLocked(parent)
	return nil
}

// cascadeImmediateChildrenLocked drains every pending Immediate child
// whose parent is fresh, level by level — the commit-time half of the
// hierarchy: an immediate parent's refresh grows its log inside the
// commit, and its immediate children consume it before the commit
// returns. Runs inside applyOps, so WAL replay reproduces it from the
// commit record alone.
func (db *Database) cascadeImmediateChildrenLocked() error {
	for _, level := range db.childLevelsLocked() {
		for _, n := range level {
			vs := db.views[n]
			if vs.strategy != Immediate || !db.childPending(vs) {
				continue
			}
			parent := db.parentOf(vs)
			if parent == nil || db.viewStale(parent) {
				continue
			}
			if err := db.inPhase(PhaseImmRefresh, func() error { return db.drainChildLocked(vs, parent) }); err != nil {
				return err
			}
		}
	}
	db.compactDeltaLogsLocked()
	return nil
}

// anyStaleChildLocked reports whether the hierarchy pass has work.
func (db *Database) anyStaleChildLocked() bool {
	for _, vs := range db.views {
		if db.parentOf(vs) != nil && db.viewStale(vs) {
			return true
		}
	}
	return false
}

// refreshHierarchyLocked is RefreshAll's second phase: after the base
// views refreshed (in parallel), walk child views level by level so
// PR 6's shared-delta grouping applies per level — stale differential
// children at the same log position of the same parent share one
// replay of the pending suffix, leader-charged exactly like a shared
// base delta. Snapshot/on-demand/mismatched children refresh
// individually through the strategy dispatch. Always serial: levels
// order the work and parents' logs mutate as children drain.
func (db *Database) refreshHierarchyLocked(stats *[]RefreshUnitStat) error {
	for _, level := range db.childLevelsLocked() {
		type groupKey struct {
			parent string
			pos    int64
		}
		groups := map[groupKey][]*viewState{}
		var order []groupKey
		var singles []*viewState
		for _, n := range level {
			vs := db.views[n]
			if !db.viewStale(vs) {
				continue
			}
			parent := db.parentOf(vs)
			drainable := (vs.strategy == Deferred || vs.strategy == Immediate) &&
				parent != nil && !db.viewStale(parent) &&
				vs.parentGen == parent.logGen && vs.parentPos >= parent.logStart &&
				db.childDrainEstimateLocked(parent, int(parent.logStart+int64(len(parent.deltaLog))-vs.parentPos)).Drain(costmodel.Default())
			if db.shareDeltas != ShareDeltasOff && drainable {
				k := groupKey{parent.def.Name, vs.parentPos}
				if _, ok := groups[k]; !ok {
					order = append(order, k)
				}
				groups[k] = append(groups[k], vs)
				continue
			}
			singles = append(singles, vs)
		}
		for _, vs := range singles {
			if err := db.refreshChildUnitLocked([]*viewState{vs}, stats); err != nil {
				return err
			}
		}
		for _, k := range order {
			if err := db.refreshChildUnitLocked(groups[k], stats); err != nil {
				return err
			}
		}
	}
	db.compactDeltaLogsLocked()
	return nil
}

// refreshChildUnitLocked refreshes one hierarchy unit — a shared-drain
// group or a single child — recording per-unit stats and WAL records
// the way RefreshAll's serial phase does.
func (db *Database) refreshChildUnitLocked(views []*viewState, stats *[]RefreshUnitStat) error {
	names := make([]string, len(views))
	for i, vs := range views {
		names[i] = vs.def.Name
	}
	before := db.meter.Snapshot()
	scansBefore := db.deltaScans.Load()
	clockBefore := db.clock.Load()
	var err error
	if len(views) >= 2 {
		err = db.refreshChildGroupShared(views)
	} else {
		err = db.refreshStaleLocked(views[0])
	}
	if err == nil {
		for _, vs := range views {
			if err = db.logRefreshLocked(vs.def.Name, refreshKindStale, clockBefore); err != nil {
				break
			}
		}
	}
	*stats = append(*stats, RefreshUnitStat{
		Views:      names,
		IO:         db.meter.Snapshot().Sub(before),
		DeltaScans: db.deltaScans.Load() - scansBefore,
	})
	return err
}

// refreshChildGroupShared drains a group of children pending at the
// same position of the same parent from one materialization of the log
// suffix: the build (a ViewDeltaScan replay) runs once and is charged
// to the first consumer by name; every other consumer's plan renders a
// zero-cost SharedDeltaRef — the same leader/follower attribution
// refreshGroupShared uses for base deltas.
func (db *Database) refreshChildGroupShared(views []*viewState) error {
	for _, vs := range views {
		if db.hierarchyFail != nil {
			if err := db.hierarchyFail(vs.def.Name); err != nil {
				return err
			}
		}
	}
	parent := db.parentOf(views[0])
	return db.inPhase(PhaseDefRefresh, func() error {
		fp := exec.DeltaFingerprint{Kind: "viewdelta", Rel1: parent.def.Name}
		end := parent.logStart + int64(len(parent.deltaLog))
		pending := parent.deltaLog[views[0].parentPos-parent.logStart:]
		src := exec.NewViewDeltaScan(db.execOpts(), parent.def.Name, viewDeltaRows(pending))
		buildNode, buildDelta, rows, err := db.runTree(src, true)
		if err != nil {
			return err
		}
		leader := views[0].def.Name
		for i, vs := range views {
			tree, err := db.sharedConsumerTree(vs, fp, rows)
			if err != nil {
				return err
			}
			node, delta, _, runErr := db.runTree(tree, false)
			var full *exec.PlanNode
			fullDelta := delta
			if i == 0 {
				full = exec.Node("shared-refresh("+vs.def.Name+")", exec.SharedDeltaNode(fp, len(views), buildNode), node)
				fullDelta = fullDelta.Add(buildDelta)
			} else {
				full = exec.Node("shared-refresh("+vs.def.Name+")", exec.SharedDeltaRef(fp, leader), node)
			}
			db.recordPlan(vs, PlanPathRefresh, full, fullDelta)
			if runErr != nil {
				return runErr
			}
			vs.parentPos = end
			vs.parentGen = parent.logGen
			vs.refreshes++
		}
		return nil
	})
}

// compactDeltaLogLocked trims the parent's log below the minimum
// position any differential child still needs. Children on other
// strategies never read the log (they recompute from the parent's
// contents), so they do not pin it; a generation-mismatched child will
// recompute and resync, so it does not pin it either.
func (db *Database) compactDeltaLogLocked(parent *viewState) {
	min := parent.logStart + int64(len(parent.deltaLog))
	for _, cn := range db.children[parent.def.Name] {
		c := db.views[cn]
		if c.strategy != Deferred && c.strategy != Immediate {
			continue
		}
		if c.parentGen != parent.logGen {
			continue
		}
		if c.parentPos < min {
			min = c.parentPos
		}
	}
	if min > parent.logStart {
		parent.deltaLog = append([]viewDelta(nil), parent.deltaLog[min-parent.logStart:]...)
		parent.logStart = min
	}
}

// compactDeltaLogsLocked compacts every non-empty parent log.
func (db *Database) compactDeltaLogsLocked() {
	for _, n := range db.viewNamesLocked() {
		if vs := db.views[n]; len(vs.deltaLog) > 0 {
			db.compactDeltaLogLocked(vs)
		}
	}
}

// SetHierarchyFailpoint installs a hook invoked at the start of every
// child drain with the child's name; a non-nil return aborts the
// refresh before any row is applied. Tests use it to prove a failed
// mid-hierarchy refresh leaves no pinned frames and no partially
// applied child. Pass nil to clear.
func (db *Database) SetHierarchyFailpoint(fn func(view string) error) {
	db.mu.Lock()
	db.hierarchyFail = fn
	db.mu.Unlock()
}

// ViewChildren returns the names of the views defined directly over
// the named view, sorted.
func (db *Database) ViewChildren(name string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.views[name]; !ok {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	return append([]string(nil), db.children[name]...), nil
}

// ViewDeltaLogLen returns how many unconsumed entries the named view's
// delta log currently holds (observability for tests and vmsim).
func (db *Database) ViewDeltaLogLen(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vs, ok := db.views[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown view %q", name)
	}
	return len(vs.deltaLog), nil
}
