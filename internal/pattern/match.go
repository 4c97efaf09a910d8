package pattern

import (
	"sort"
	"sync"

	"gedlib/internal/graph"
	"gedlib/internal/obs"
)

// Match is a homomorphism h from a pattern to a graph, i.e. the vector
// h(x̄) of Section 2. Distinct variables may map to the same node.
//
// Match is the public boundary of the matcher; internally the compiled
// plan binds variables through a dense []graph.NodeID keyed by variable
// index and materializes the map only when a complete match is yielded.
type Match map[Var]graph.NodeID

// Clone returns a copy of m.
func (m Match) Clone() Match {
	c := make(Match, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// unbound marks an unassigned slot of the dense binding vector. Real
// node ids are non-negative.
const unbound = graph.NodeID(-1)

// labelAbsent and labelWild are the sentinel resolved-label symbols of
// compiled plans: absent means the label occurs nowhere in the
// snapshot (the edge or variable can never match), wild is the
// wildcard.
const (
	labelAbsent int32 = -2
	labelWild   int32 = -1
)

// cedge is a compiled pattern edge: endpoints resolved to variable
// indexes so the search never hashes a Var, and the edge label resolved
// to its interned snapshot symbol so the search never hashes a label
// either.
type cedge struct {
	src, dst int
	label    graph.Label
	lid      int32 // resolved symbol; labelWild / labelAbsent sentinels
}

// matcher holds the scratch state of one backtracking search. Matchers
// are pooled per Plan: the small per-update searches of incremental
// validation run thousands of times per second, and re-allocating the
// binding vector, dirty set, output map and candidate buffers on every
// enumeration dominates their cost.
type matcher struct {
	pl       *Plan
	snap     *graph.Snapshot           // mirrors pl.snap
	bind     []graph.NodeID            // dense partial assignment, unbound = -1
	last     []graph.NodeID            // binding each out entry currently holds
	out      Match                     // reused map handed to yield
	order    []int                     // variable indexes still to bind, in order
	orderBuf []int                     // pooled backing for re-rooted orders
	placed   []bool                    // re-rooting scratch: variables already ordered
	wild     [][]graph.NodeID          // per-variable wildcard-neighbor dedup buffers
	isect    [][]graph.NodeID          // per-variable intersection output buffers
	runs     [][][]graph.NodeID        // per-variable sorted-run collection buffers
	covered  []bool                    // candidates(x) already enforced x's bound edges+filters
	yield    func(Match) bool          // returns false to stop enumeration
	dense    func([]graph.NodeID) bool // dense-vector alternative to yield
	filter   func(graph.NodeID) bool   // optional host-node admission filter
	stop     func() bool               // polled inside the search; true aborts
	tick     uint32                    // amortizes stop polling
	done     bool

	// Per-enumeration profiler tallies, plain ints on the hot path;
	// flushed into Plan.prof (when attached) by putMatcher.
	nCand  uint64 // candidates examined by search
	nIsect uint64 // sorted runs walked by leapfrog intersections
	nProbe uint64 // per-candidate consistency probes
	nBind  uint64 // complete bindings materialized
}

// stopEvery is how many search steps pass between stop polls: frequent
// enough that a cancelled context aborts even a match-free exponential
// search promptly, rare enough to stay off the hot path.
const stopEvery = 1024

// ConstFilter is a constant literal x.A = c pushed down into a plan:
// the enumeration then emits only matches whose binding of Var carries
// attribute Attr with exactly Value, skipping literal-failing partial
// bindings inside the search instead of post-filtering whole matches.
// The filter resolves to the snapshot's (attr, value) posting list and
// joins the candidate intersection. Filters naming variables the
// pattern does not have are ignored.
type ConstFilter struct {
	Var   Var
	Attr  graph.Attr
	Value graph.Value
}

// cfilter is a compiled pushed-down filter: the attribute resolved to
// its interned symbol and the posting list of nodes carrying
// (attr, value).
type cfilter struct {
	attr graph.Attr
	val  graph.Value
	aid  int32          // resolved attr symbol; -1 = unresolved/absent
	post []graph.NodeID // snapshot posting, ascending
}

// Plan is a compiled matching plan for one (pattern, snapshot) pair: the
// variable order, index-resolved adjacency, pushed-down literal
// postings and binding layout are computed once and shared across any
// number of (concurrent) enumerations. Plans are immutable after
// Compile and safe for concurrent use.
type Plan struct {
	p      *Pattern
	snap   *graph.Snapshot
	vars   []Var // variable index -> variable
	varIdx map[Var]int
	labels []graph.Label // variable index -> label
	varLid []int32       // variable index -> resolved label symbol
	adj    [][]cedge     // variable index -> incident pattern edges
	order  []int         // variable binding order, as indexes
	// pivotOrder[i] is order re-rooted at variable i (see reroot): the
	// binding order of the other variables once i is pre-bound.
	pivotOrder [][]int

	filters []ConstFilter // pushed-down constant literals, as given
	varFilt [][]cfilter   // variable index -> compiled filters
	// probe selects the legacy scan-and-probe extension step (first
	// bound neighbor's adjacency list, every other constraint probed per
	// candidate) instead of the default multi-way sorted intersection.
	// It exists as the measured baseline of BENCH_match and as the
	// differential-test oracle for the intersection path.
	probe bool

	// pool recycles matcher scratch across enumerations; see matcher.
	// It is a pointer so Rebind-derived plans share one pool: the
	// scratch is sized by the pattern (identical across a lineage of
	// rebinds), and sharing keeps the pool warm on the per-delta path
	// where validators rebase for every update.
	pool *sync.Pool

	// prof, when attached via SetProfile, receives every enumeration's
	// tallies; carried across Rebind so per-rule statistics accumulate
	// over a validator's whole snapshot lineage.
	prof *obs.MatchStats
}

// Compile prepares a matching plan for p over the frozen snapshot snap.
// A mutable graph is matched by freezing it first (graph.Graph.Freeze);
// compile once and reuse the plan wherever matching is repeated.
func Compile(p *Pattern, snap *graph.Snapshot) *Plan {
	return compile(p, snap, nil, false)
}

// CompileFiltered is Compile with constant literals pushed down into
// the plan: enumeration skips bindings that fail them, so callers that
// would post-filter matches on x.A = c literals (validators checking a
// GED's antecedent) never enumerate the failing matches at all. Each
// filter resolves to the attribute-value index's posting list and
// candidate generation intersects it alongside the adjacency runs.
func CompileFiltered(p *Pattern, snap *graph.Snapshot, filters []ConstFilter) *Plan {
	return compile(p, snap, filters, false)
}

// CompileProbe compiles the legacy scan-and-probe plan: candidates come
// from the first bound pattern-neighbor's adjacency list and every
// remaining constraint is probed per candidate, with the pre-intersection
// variable ordering. It is the measured baseline of the worst-case-
// optimal extension step and the oracle of its differential tests.
func CompileProbe(p *Pattern, snap *graph.Snapshot) *Plan {
	return compile(p, snap, nil, true)
}

func compile(p *Pattern, snap *graph.Snapshot, filters []ConstFilter, probe bool) *Plan {
	n := len(p.vars)
	pl := &Plan{
		p:       p,
		snap:    snap,
		vars:    p.vars,
		varIdx:  make(map[Var]int, n),
		labels:  make([]graph.Label, n),
		adj:     make([][]cedge, n),
		varFilt: make([][]cfilter, n),
		probe:   probe,
		pool:    new(sync.Pool),
	}
	pl.varLid = make([]int32, n)
	for i, x := range p.vars {
		pl.varIdx[x] = i
		pl.labels[i] = p.labels[x]
		pl.varLid[i] = resolveLabel(snap, p.labels[x])
	}
	for _, e := range p.edges {
		ce := cedge{src: pl.varIdx[e.Src], dst: pl.varIdx[e.Dst], label: e.Label}
		ce.lid = resolveLabel(snap, e.Label)
		pl.adj[ce.src] = append(pl.adj[ce.src], ce)
		if ce.dst != ce.src {
			pl.adj[ce.dst] = append(pl.adj[ce.dst], ce)
		}
	}
	if len(filters) > 0 {
		pl.filters = append([]ConstFilter(nil), filters...)
		for _, f := range pl.filters {
			i, ok := pl.varIdx[f.Var]
			if !ok {
				continue
			}
			cf := cfilter{attr: f.Attr, val: f.Value, aid: -1}
			if aid, ok := snap.AttrID(f.Attr); ok {
				cf.aid = aid
				cf.post = snap.LookupAttrID(aid, f.Value)
			}
			pl.varFilt[i] = append(pl.varFilt[i], cf)
		}
	}
	pl.order = planOrder(pl)
	pl.pivotOrder = make([][]int, n)
	placed := make([]bool, n)
	all := make([]int, 0, n*(n-1))
	for i := range pl.pivotOrder {
		clear(placed)
		placed[i] = true
		start := len(all)
		all = pl.reroot(all, placed)
		pl.pivotOrder[i] = all[start:len(all):len(all)]
	}
	return pl
}

// reroot appends to dst the variables placed does not mark, in pl.order
// re-rooted at the placed set: each step takes the first unplaced
// variable of pl.order with a pattern edge to a placed one, and the
// first unplaced variable only when none has such an edge. A pivoted or
// pre-bound search then extends along bound pattern edges, drawing
// candidates from adjacency runs, instead of scanning a label posting
// under every pre-binding. placed is updated in place.
func (pl *Plan) reroot(dst []int, placed []bool) []int {
	for {
		next := -1
		for _, x := range pl.order {
			if placed[x] {
				continue
			}
			if next < 0 {
				next = x
			}
			if pl.linked(x, placed) {
				next = x
				break
			}
		}
		if next < 0 {
			return dst
		}
		placed[next] = true
		dst = append(dst, next)
	}
}

// linked reports whether variable x has a pattern edge to another,
// placed variable.
func (pl *Plan) linked(x int, placed []bool) bool {
	for _, e := range pl.adj[x] {
		if (e.src == x && e.dst != x && placed[e.dst]) || (e.dst == x && e.src != x && placed[e.src]) {
			return true
		}
	}
	return false
}

// resolveLabel returns l's interned symbol in snap, or the labelWild /
// labelAbsent sentinel.
func resolveLabel(snap *graph.Snapshot, l graph.Label) int32 {
	if l == graph.Wildcard {
		return labelWild
	}
	if lid, ok := snap.LabelID(l); ok {
		return lid
	}
	return labelAbsent
}

// OrderedVars returns the plan's variable binding order — the sequence
// the worst-case-optimal search extends partial bindings in, chosen
// from the snapshot's statistics at compile time. Callers that drive
// their own extension loop (the sharded validator resumes partial
// bindings across shard queues) reuse it so their enumeration visits
// variables in the same cost-aware order. The returned slice is fresh.
func (pl *Plan) OrderedVars() []Var {
	out := make([]Var, len(pl.order))
	for i, vi := range pl.order {
		out[i] = pl.vars[vi]
	}
	return out
}

// PivotOrderedVars is OrderedVars for a search with pivot pre-bound, as
// ForEachPivotCancel runs it: pivot first, then the plan's order
// re-rooted at pivot (see reroot). It returns nil when the pattern has
// no variable pivot. The returned slice is fresh.
func (pl *Plan) PivotOrderedVars(pivot Var) []Var {
	pi, ok := pl.varIdx[pivot]
	if !ok {
		return nil
	}
	out := append(make([]Var, 0, len(pl.vars)), pivot)
	for _, vi := range pl.pivotOrder[pi] {
		out = append(out, pl.vars[vi])
	}
	return out
}

// Rebind returns a plan equivalent to pl but bound to snap, an
// immutable snapshot of the same lineage as the plan's snapshot (i.e.
// one produced from it by graph.Snapshot.Apply, in any number of steps).
// Within a lineage symbol ids are append-only, so the compiled variable
// order and adjacency carry over unchanged; only label symbols that
// were absent at Compile time are re-resolved — a delta may have
// interned them since. The cost is proportional to the pattern, never
// the snapshot, which is what lets validators follow a delta-maintained
// snapshot without recompiling.
//
// Rebinding onto an unrelated snapshot corrupts label resolution
// silently; callers are expected to check Lineage, as the Engine's plan
// cache does.
func (pl *Plan) Rebind(snap *graph.Snapshot) *Plan {
	if snap == pl.snap {
		return pl
	}
	np := &Plan{
		p:       pl.p,
		snap:    snap,
		vars:    pl.vars,
		varIdx:  pl.varIdx,
		labels:  pl.labels,
		varLid:  pl.varLid,
		adj:     pl.adj,
		order:   pl.order,
		filters: pl.filters,
		varFilt: pl.varFilt,
		probe:   pl.probe,
		pool:    pl.pool, // same pattern, same scratch shape: stay warm
		prof:    pl.prof, // profile accumulates across the lineage

		pivotOrder: pl.pivotOrder, // pattern-only, like order
	}
	// Pushed-down postings are per-snapshot: attr symbols carry over
	// (append-only within a lineage, re-resolved if they appeared since
	// Compile) but the posting contents move with every Apply, so they
	// are re-fetched here — at pattern cost, through the posting index
	// the snapshot maintains across deltas.
	if len(pl.filters) > 0 {
		nf := make([][]cfilter, len(pl.varFilt))
		for i, fs := range pl.varFilt {
			if len(fs) == 0 {
				continue
			}
			cs := make([]cfilter, len(fs))
			copy(cs, fs)
			for k := range cs {
				if cs[k].aid < 0 {
					if aid, ok := snap.AttrID(cs[k].attr); ok {
						cs[k].aid = aid
					}
				}
				if cs[k].aid >= 0 {
					cs[k].post = snap.LookupAttrID(cs[k].aid, cs[k].val)
				}
			}
			nf[i] = cs
		}
		np.varFilt = nf
	}
	for i, lid := range pl.varLid {
		if lid != labelAbsent {
			continue
		}
		if resolveLabel(snap, pl.labels[i]) == labelAbsent {
			continue
		}
		// A previously-absent symbol exists now: re-resolve the whole
		// (tiny) table once.
		nv := make([]int32, len(pl.varLid))
		for j := range nv {
			nv[j] = resolveLabel(snap, pl.labels[j])
		}
		np.varLid = nv
		break
	}
	for x := range pl.adj {
		for _, e := range pl.adj[x] {
			if e.lid != labelAbsent || resolveLabel(snap, e.label) == labelAbsent {
				continue
			}
			// Same for edge labels: clone the adjacency with fresh
			// resolutions.
			nadj := make([][]cedge, len(pl.adj))
			for y := range pl.adj {
				es := make([]cedge, len(pl.adj[y]))
				copy(es, pl.adj[y])
				for k := range es {
					es[k].lid = resolveLabel(snap, es[k].label)
				}
				nadj[y] = es
			}
			np.adj = nadj
			return np
		}
	}
	return np
}

// newMatcher checks the plan's pool for recycled per-enumeration state —
// the dense binding vector, dirty set, output map and candidate
// buffers — and allocates it only on a cold pool. Callers must hand the
// matcher back with putMatcher when the enumeration ends.
func (pl *Plan) newMatcher(stop func() bool, yield func(Match) bool) *matcher {
	m, ok := pl.pool.Get().(*matcher)
	if !ok {
		m = &matcher{
			bind:    make([]graph.NodeID, len(pl.vars)),
			last:    make([]graph.NodeID, len(pl.vars)),
			covered: make([]bool, len(pl.vars)),
			placed:  make([]bool, len(pl.vars)),
			out:     make(Match, len(pl.vars)),
		}
	}
	// The pool is shared across same-lineage rebinds, so a recycled
	// matcher may carry a predecessor plan; re-point it every time.
	m.pl, m.snap = pl, pl.snap
	m.yield = yield
	m.stop = stop
	m.tick = 0
	m.done = false
	// The out map may carry entries from a previous run; they are all
	// overwritten before the next yield because every last slot resets
	// to unbound, and a yield only ever happens with every variable
	// bound.
	for i := range m.bind {
		m.bind[i] = unbound
		m.last[i] = unbound
		m.covered[i] = false
	}
	return m
}

// putMatcher returns scratch to the plan's pool, dropping the caller's
// closures — and the plan/snapshot references, which would
// otherwise pin a superseded snapshot's COW pages across rebinds — so
// the pool never pins them. newMatcher re-points them on every Get.
func (pl *Plan) putMatcher(m *matcher) {
	pl.flushProfile(m)
	m.yield = nil
	m.dense = nil
	m.filter = nil
	m.stop = nil
	m.pl = nil
	m.snap = nil
	// The run-collection buffers hold views into snapshot CSR storage;
	// nil them so a pooled matcher never pins a superseded snapshot's
	// pages (the buffers themselves — a few slice headers per variable —
	// stay recycled).
	for x := range m.runs {
		rs := m.runs[x]
		for j := range rs {
			rs[j] = nil
		}
		m.runs[x] = rs[:0]
	}
	pl.pool.Put(m)
}

// wildBuf returns variable x's recycled wildcard-neighbor buffer,
// emptied. Buffers are per variable because candidate slices stay live
// while deeper search levels compute theirs.
func (m *matcher) wildBuf(x int) []graph.NodeID {
	if m.wild == nil {
		m.wild = make([][]graph.NodeID, len(m.pl.vars))
	}
	return m.wild[x][:0]
}

// runsBuf returns variable x's recycled sorted-run collection buffer,
// emptied; isectBuf its intersection output buffer. Both are per
// variable for the same reason as wildBuf: a level's candidate slice
// stays live while deeper levels compute theirs.
func (m *matcher) runsBuf(x int) [][]graph.NodeID {
	if m.runs == nil {
		m.runs = make([][][]graph.NodeID, len(m.pl.vars))
	}
	return m.runs[x][:0]
}

func (m *matcher) isectBuf(x int) []graph.NodeID {
	if m.isect == nil {
		m.isect = make([][]graph.NodeID, len(m.pl.vars))
	}
	return m.isect[x][:0]
}

// candFail is the empty-candidate-set exit of candidatesIsect: it hands
// a non-nil run collection buffer back to its per-variable slot (so
// its capacity is recycled) and yields no candidates.
func (m *matcher) candFail(x int, runs [][]graph.NodeID) []graph.NodeID {
	if runs != nil {
		m.runs[x] = runs
	}
	return nil
}

// ForEachBound enumerates matches extending the partial assignment pre
// (which may be nil). Pre-bindings violating labels or edges — or
// naming variables the pattern does not have — yield no matches. The
// Match passed to yield is reused; clone it to retain it.
func (pl *Plan) ForEachBound(pre Match, yield func(Match) bool) {
	pl.ForEachBoundCancel(pre, nil, yield)
}

// ForEachBoundCancel is ForEachBound with a cooperative abort hook:
// stop (when non-nil) is polled periodically *inside* the backtracking
// search, so even an exponential exploration that never completes a
// match can be cut short. Enumeration ends when stop returns true.
//
// A non-empty pre re-roots the binding order at the pre-bound variables
// (see reroot), as ForEachPivotCancel does for its pivot.
//
// The empty pattern has exactly one (empty) match, delivered through
// the same search path as every other pattern, so yield's "return false
// to stop" verdict and pre-binding rejection apply uniformly.
func (pl *Plan) ForEachBoundCancel(pre Match, stop func() bool, yield func(Match) bool) {
	m := pl.newMatcher(stop, yield)
	defer pl.putMatcher(m)
	for v, n := range pre {
		i, ok := pl.varIdx[v]
		if !ok {
			return
		}
		if !m.consistent(i, n) {
			return
		}
		m.bind[i] = n
	}
	if len(pre) == 0 {
		m.order = pl.order
	} else {
		for i, n := range m.bind {
			m.placed[i] = n != unbound
		}
		m.orderBuf = pl.reroot(m.orderBuf[:0], m.placed)
		m.order = m.orderBuf
	}
	m.search(0)
}

// ForEachDenseCancel enumerates every match as its dense binding
// vector, indexed by the position of each variable in the pattern's
// Vars() order — no Match map is materialized. The vector is the
// matcher's own scratch: read it during the callback, copy it to
// retain it. stop is the cooperative abort hook of ForEachBoundCancel.
//
// This is the entry point for high-volume consumers (the chase's
// fixpoint loop) where the per-match map handling of the Match boundary
// dominates.
func (pl *Plan) ForEachDenseCancel(stop func() bool, yield func([]graph.NodeID) bool) {
	pl.ForEachDenseFiltered(stop, nil, yield)
}

// ForEachDenseFiltered is ForEachDenseCancel restricted to host nodes
// the filter admits: rejected nodes are pruned at binding time, so a
// search never descends below an inadmissible assignment. The chase
// uses it to make retired coercion carriers invisible to matching.
func (pl *Plan) ForEachDenseFiltered(stop func() bool, filter func(graph.NodeID) bool, yield func([]graph.NodeID) bool) {
	m := pl.newMatcher(stop, nil)
	m.dense = yield
	m.filter = filter
	defer pl.putMatcher(m)
	m.order = pl.order
	m.search(0)
}

// ForEachPivotCancel enumerates matches with the pivot variable
// successively bound to each candidate, reusing one matcher across the
// whole block — the low-overhead primitive behind parallel and
// incremental validation. Candidates that violate the pivot's label or
// incident edges are skipped. Like ForEachDenseCancel it yields each
// match as the matcher's dense binding vector, indexed by variable
// position in the pattern's Vars() order (read it during the callback,
// copy it to retain it), and stop is the cooperative abort hook of
// ForEachBoundCancel.
//
// Pivot candidates are intersected with the pivot's pushed-down literal
// postings up front when the candidate list is sorted (it usually is:
// label postings and attribute-value postings both arrive ascending);
// unsorted candidate lists fall back to the per-candidate literal check
// in consistent.
//
// The other variables bind in the plan's order re-rooted at the pivot,
// derived once at Compile (see reroot): every variable connected to the
// pivot binds through a pattern edge to an already-bound one, so its
// candidates come from adjacency runs rather than its label posting,
// and a search around touched nodes costs what their neighbourhoods
// hold, not what the graph holds.
func (pl *Plan) ForEachPivotCancel(pivot Var, cands []graph.NodeID, stop func() bool, yield func([]graph.NodeID) bool) {
	pi, ok := pl.varIdx[pivot]
	if !ok {
		return
	}
	m := pl.newMatcher(stop, nil)
	m.dense = yield
	defer pl.putMatcher(m)
	cands = m.pivotCands(pi, cands)
	m.order = pl.pivotOrder[pi]
	m.nCand += uint64(len(cands))
	for _, c := range cands {
		if !m.consistent(pi, c) {
			continue
		}
		m.bind[pi] = c
		m.search(0)
		m.bind[pi] = unbound
		if m.done {
			return
		}
	}
}

// pivotCands narrows a pivot block to the candidates satisfying the
// pivot's pushed-down literals, by sorted intersection with their
// posting lists when the block itself is ascending. Candidates the
// filters reject would be discarded one by one by consistent anyway;
// the intersection skips them wholesale, which is what makes pivoted
// re-checks over selective literals cheap.
func (m *matcher) pivotCands(pi int, cands []graph.NodeID) []graph.NodeID {
	if m.pl.probe || len(m.pl.varFilt[pi]) == 0 || len(cands) == 0 {
		return cands
	}
	for fi := range m.pl.varFilt[pi] {
		f := &m.pl.varFilt[pi][fi]
		if f.aid < 0 || len(f.post) == 0 {
			return nil
		}
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			return cands // unsorted block: consistent filters per candidate
		}
	}
	runs := m.runsBuf(pi)
	runs = append(runs, cands)
	for fi := range m.pl.varFilt[pi] {
		runs = append(runs, m.pl.varFilt[pi][fi].post)
	}
	m.nIsect += uint64(len(runs))
	out := intersectInto(m.isectBuf(pi), runs)
	m.isect[pi] = out
	m.runs[pi] = runs
	m.covered[pi] = true // literals pre-satisfied; edges all unbound yet
	return out
}

// ForEachMatch enumerates the matches of p in snap, invoking yield for
// each. Enumeration stops early when yield returns false. The Match
// passed to yield is reused between invocations; clone it to retain it.
func ForEachMatch(p *Pattern, snap *graph.Snapshot, yield func(Match) bool) {
	Compile(p, snap).ForEachBound(nil, yield)
}

// ForEachMatchCancel is ForEachMatch with the cooperative abort hook of
// ForEachBoundCancel.
func ForEachMatchCancel(p *Pattern, snap *graph.Snapshot, stop func() bool, yield func(Match) bool) {
	Compile(p, snap).ForEachBoundCancel(nil, stop, yield)
}

// ForEachMatchBound enumerates the matches of p in snap extending the
// partial assignment pre. For repeated enumeration over one snapshot,
// Compile once and use Plan.ForEachBound.
func ForEachMatchBound(p *Pattern, snap *graph.Snapshot, pre Match, yield func(Match) bool) {
	Compile(p, snap).ForEachBound(pre, yield)
}

// FindMatches returns up to limit matches of p in snap; limit <= 0
// means all.
func FindMatches(p *Pattern, snap *graph.Snapshot, limit int) []Match {
	var out []Match
	ForEachMatch(p, snap, func(m Match) bool {
		out = append(out, m.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

// HasMatch reports whether p has at least one match in snap.
func HasMatch(p *Pattern, snap *graph.Snapshot) bool {
	found := false
	ForEachMatch(p, snap, func(Match) bool {
		found = true
		return false
	})
	return found
}

// CountMatches returns the number of matches of p in snap.
func CountMatches(p *Pattern, snap *graph.Snapshot) int {
	n := 0
	ForEachMatch(p, snap, func(Match) bool {
		n++
		return true
	})
	return n
}

// planOrder chooses a variable binding order: the variable with the
// fewest candidates first — counting pushed-down literal postings, not
// just label postings, so a selective constant literal pulls its
// variable to the front — then greedily the frontier variable with the
// most edges into already-ordered variables (the intersection-tight
// choice: every such edge contributes one more sorted run to the
// extension step's intersection), breaking ties toward small candidate
// sets. Disconnected components are started at their most selective
// variable. Remaining ties break toward the label with the higher
// average degree in the snapshot — a better-connected seed prunes its
// neighborhood harder. Probe-mode plans keep the legacy frontier rule
// (selectivity only), as the faithful baseline of the pre-intersection
// matcher.
func planOrder(pl *Plan) []int {
	n := len(pl.vars)
	candCount := func(i int) int {
		c := len(pl.snap.CandidateNodes(pl.labels[i]))
		for fi := range pl.varFilt[i] {
			f := &pl.varFilt[i][fi]
			if f.aid < 0 {
				return 0
			}
			if len(f.post) < c {
				c = len(f.post)
			}
		}
		return c
	}
	avgDeg := func(i int) float64 {
		return pl.snap.LabelAvgDegree(pl.labels[i])
	}
	// better reports whether variable a is the more attractive next
	// binding than b: fewer candidates, then higher average degree, then
	// name for determinism.
	better := func(a, b int) bool {
		ca, cb := candCount(a), candCount(b)
		if ca != cb {
			return ca < cb
		}
		da, db := avgDeg(a), avgDeg(b)
		if da != db {
			return da > db
		}
		return pl.vars[a] < pl.vars[b]
	}

	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, e := range pl.adj[i] {
			if e.src == i && e.dst != i {
				neighbors[i] = append(neighbors[i], e.dst)
			}
			if e.dst == i && e.src != i {
				neighbors[i] = append(neighbors[i], e.src)
			}
		}
	}

	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	sort.Slice(remaining, func(x, y int) bool { return better(remaining[x], remaining[y]) })

	ordered := make([]int, 0, n)
	placed := make([]bool, n)
	frontier := make(map[int]bool)
	place := func(x int) {
		ordered = append(ordered, x)
		placed[x] = true
		delete(frontier, x)
		for _, y := range neighbors[x] {
			if !placed[y] {
				frontier[y] = true
			}
		}
	}

	// tightness counts x's pattern edges into already-placed variables:
	// each is one more sorted run in x's extension intersection.
	tightness := func(x int) int {
		t := 0
		for _, y := range neighbors[x] {
			if placed[y] {
				t++
			}
		}
		return t
	}

	for len(ordered) < n {
		next, nextTight := -1, -1
		if len(frontier) > 0 {
			for x := range frontier {
				t := 0
				if !pl.probe {
					t = tightness(x)
				}
				if next < 0 || t > nextTight || (t == nextTight && better(x, next)) {
					next, nextTight = x, t
				}
			}
		} else {
			for _, x := range remaining {
				if !placed[x] {
					next = x
					break
				}
			}
		}
		place(next)
	}
	return ordered
}

// search binds the variable at position i of the order and recurses.
func (m *matcher) search(i int) {
	if m.done {
		return
	}
	if m.stop != nil {
		m.tick++
		if m.tick%stopEvery == 0 && m.stop() {
			m.done = true
			return
		}
	}
	if i == len(m.order) {
		m.emit()
		return
	}
	x := m.order[i]
	cands := m.candidates(x)
	m.nCand += uint64(len(cands))
	for _, v := range cands {
		if !m.consistent(x, v) {
			continue
		}
		m.bind[x] = v
		m.search(i + 1)
		m.bind[x] = unbound
		if m.done {
			return
		}
	}
}

// emit delivers a complete assignment. Dense consumers receive the
// binding vector itself (indexed by variable position, not retained);
// map consumers get the reused Match map, into which only bindings that
// changed since the previous emit are written back: between consecutive
// leaves of a deep search only the innermost variables move, so most
// string-keyed map writes are skipped. At a leaf every variable is
// bound, so the map never carries stale entries.
func (m *matcher) emit() {
	m.nBind++
	if m.dense != nil {
		if !m.dense(m.bind) {
			m.done = true
		}
		return
	}
	for i, x := range m.pl.vars {
		if m.last[i] != m.bind[i] {
			m.out[x] = m.bind[i]
			m.last[i] = m.bind[i]
		}
	}
	if !m.yield(m.out) {
		m.done = true
	}
}

// candidates returns the nodes that variable index x may be bound to.
// The default path intersects the sorted CSR adjacency runs of every
// already-bound pattern-neighbor, together with x's pushed-down literal
// postings — candidates then satisfy every incident concrete-labeled
// edge and every pushed-down literal by construction (worst-case-optimal
// extension). Probe plans scan the first bound neighbor's run instead.
// Node-label compatibility is checked by consistent.
func (m *matcher) candidates(x int) []graph.NodeID {
	if m.pl.probe {
		return m.candidatesProbe(x)
	}
	return m.candidatesIsect(x)
}

// candidatesIsect is the default extension step: collect the sorted
// adjacency run of every bound concrete-labeled incident edge plus the
// pushed-down literal postings, and leapfrog-intersect them. With one
// eligible run the run itself is returned (zero copy) — the smallest,
// since it is the only one. Wildcard-labeled incident edges cannot
// feed the intersection (their neighbor sets are merged across label
// runs, not sorted) and stay residual checks in consistent, unless
// they are the only bound edges, in which case the legacy deduped
// neighbor buffer is used, picked from the smallest bound neighborhood.
func (m *matcher) candidatesIsect(x int) []graph.NodeID {
	m.covered[x] = false
	pl := m.pl
	// run0 carries the first sorted run; the collection buffer is only
	// touched once a second run shows up, keeping the dominant
	// single-bound-edge case free of bookkeeping.
	var run0 []graph.NodeID
	var runs [][]graph.NodeID
	nAdj := 0
	// The smallest-neighborhood bound wildcard edge, kept as the
	// fallback candidate source when no sorted run exists.
	wildEdge := -1
	wildIn := false
	var wildV graph.NodeID
	wildLen := 0
	push := func(run []graph.NodeID) {
		if run0 == nil {
			run0 = run
			return
		}
		if runs == nil {
			runs = append(m.runsBuf(x), run0)
		}
		runs = append(runs, run)
	}
	for ei := range pl.adj[x] {
		e := &pl.adj[x][ei]
		var v graph.NodeID
		var in bool
		if e.src == x && e.dst != x {
			if v = m.bind[e.dst]; v == unbound {
				continue
			}
			in = true // x -> v: candidates are in-neighbors of v
		} else if e.dst == x && e.src != x {
			if v = m.bind[e.src]; v == unbound {
				continue
			}
			in = false // v -> x: candidates are out-neighbors of v
		} else {
			continue
		}
		switch e.lid {
		case labelAbsent:
			return m.candFail(x, runs)
		case labelWild:
			deg := m.snap.OutDegree(v)
			if in {
				deg = m.snap.InDegree(v)
			}
			if wildEdge < 0 || deg < wildLen {
				wildEdge, wildIn, wildV, wildLen = ei, in, v, deg
			}
		default:
			var run []graph.NodeID
			if in {
				run = m.snap.InNeighborsID(v, e.lid)
			} else {
				run = m.snap.OutNeighborsID(v, e.lid)
			}
			if len(run) == 0 {
				return m.candFail(x, runs)
			}
			nAdj++
			push(run)
		}
	}
	// Pushed-down literal postings join the intersection; a filter whose
	// attribute or value occurs nowhere in the snapshot admits nothing.
	for fi := range pl.varFilt[x] {
		f := &pl.varFilt[x][fi]
		if f.aid < 0 || len(f.post) == 0 {
			return m.candFail(x, runs)
		}
		push(f.post)
	}
	if nAdj == 0 && run0 != nil && wildEdge < 0 {
		// Seed variable driven by its literal postings alone: fold the
		// label posting in too, so the intersection is as tight as both
		// indexes allow.
		switch lid := pl.varLid[x]; lid {
		case labelAbsent:
			return m.candFail(x, runs)
		case labelWild:
		default:
			post := m.snap.CandidateNodesID(lid)
			if len(post) == 0 {
				return m.candFail(x, runs)
			}
			push(post)
		}
	}
	if run0 == nil {
		if wildEdge >= 0 {
			// Only wildcard-labeled bound edges: fall back to the merged,
			// deduplicated neighbor buffer of the smallest neighborhood;
			// consistent probes it (and every other constraint).
			var buf []graph.NodeID
			if wildIn {
				buf = m.snap.AppendInNeighbors(m.wildBuf(x), wildV)
			} else {
				buf = m.snap.AppendOutNeighbors(m.wildBuf(x), wildV)
			}
			m.wild[x] = buf
			return buf
		}
		switch lid := pl.varLid[x]; lid {
		case labelAbsent:
			return nil
		case labelWild:
			return m.snap.Nodes()
		default:
			return m.snap.CandidateNodesID(lid)
		}
	}
	// Every concrete bound edge and every pushed-down literal is folded
	// into the candidate set; consistent skips re-probing them.
	m.covered[x] = true
	if runs == nil {
		return run0
	}
	m.nIsect += uint64(len(runs))
	out := intersectInto(m.isectBuf(x), runs)
	m.isect[x] = out
	m.runs[x] = runs
	return out
}

// candidatesProbe is the legacy scan-and-probe extension step: the
// first bound pattern-neighbor's run is scanned and every other
// constraint is probed per candidate.
func (m *matcher) candidatesProbe(x int) []graph.NodeID {
	for _, e := range m.pl.adj[x] {
		if e.src == x && e.dst != x {
			if v := m.bind[e.dst]; v != unbound {
				switch e.lid {
				case labelAbsent:
					return nil
				case labelWild:
					buf := m.snap.AppendInNeighbors(m.wildBuf(x), v)
					m.wild[x] = buf
					return buf
				default:
					return m.snap.InNeighborsID(v, e.lid)
				}
			}
		}
		if e.dst == x && e.src != x {
			if v := m.bind[e.src]; v != unbound {
				switch e.lid {
				case labelAbsent:
					return nil
				case labelWild:
					buf := m.snap.AppendOutNeighbors(m.wildBuf(x), v)
					m.wild[x] = buf
					return buf
				default:
					return m.snap.OutNeighborsID(v, e.lid)
				}
			}
		}
	}
	switch lid := m.pl.varLid[x]; lid {
	case labelAbsent:
		return nil
	case labelWild:
		return m.snap.Nodes()
	default:
		return m.snap.CandidateNodesID(lid)
	}
}

// consistent checks label compatibility of binding x↦v, x's pushed-down
// constant literals, and every pattern edge between x and already-bound
// variables (including self-loops). When the candidate came out of
// candidatesIsect's intersection (covered), the concrete bound-edge and
// pushed-down literal constraints were satisfied by construction and
// only the residual constraints — node label, self-loops,
// wildcard-labeled edges — are checked.
func (m *matcher) consistent(x int, v graph.NodeID) bool {
	m.nProbe++
	if m.filter != nil && !m.filter(v) {
		return false
	}
	switch lid := m.pl.varLid[x]; lid {
	case labelWild:
	case labelAbsent:
		return false
	default:
		if m.snap.NodeLabelID(v) != lid {
			return false
		}
	}
	covered := m.covered[x]
	if !covered {
		for fi := range m.pl.varFilt[x] {
			f := &m.pl.varFilt[x][fi]
			if f.aid < 0 {
				return false
			}
			val, ok := m.snap.AttrValueID(v, f.aid)
			if !ok || !val.Equal(f.val) {
				return false
			}
		}
	}
	for _, e := range m.pl.adj[x] {
		var src, dst graph.NodeID
		selfLoop := false
		switch {
		case e.src == x && e.dst == x:
			src, dst = v, v
			selfLoop = true
		case e.src == x:
			dst = m.bind[e.dst]
			if dst == unbound {
				continue
			}
			src = v
		default: // e.dst == x
			src = m.bind[e.src]
			if src == unbound {
				continue
			}
			dst = v
		}
		switch e.lid {
		case labelAbsent:
			return false
		case labelWild:
			if !m.snap.HasAnyEdge(src, dst) {
				return false
			}
		default:
			if covered && !selfLoop {
				// Already enforced by the candidate intersection.
				continue
			}
			if !m.snap.HasEdgeID(src, e.lid, dst) {
				return false
			}
		}
	}
	return true
}
