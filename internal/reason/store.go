package reason

import (
	"context"
	"slices"
	"sort"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/obs"
)

// ViolationStore is a maintained violation set: the answer to "which
// matches violate Σ" kept perpetually fresh under graph updates instead
// of recomputed. Seeding runs one full validation; from then on every
// update costs work proportional to the delta — the touched
// neighborhoods searched for new violations, and the stored entries
// that actually bind a touched node (found through an inverted
// node→entry index), re-checked:
//
//	st, _ := NewViolationStoreCtx(ctx, g.Freeze(), sigma)
//	...
//	from := st.Snapshot().SourceVersion()
//	mutate g
//	if delta := g.DeltaSince(from); delta != nil {
//		st.Apply(ctx, st.Snapshot().Apply(delta), delta.TouchedNodes())
//	} else {
//		// the journal no longer reaches back to from: re-seed from a
//		// fresh freeze (Engine.Apply does exactly this, and also
//		// re-seeds when the backlog rivals the graph)
//	}
//
// Apply exploits the two monotonicity facts of add-only graphs that
// Validator.TouchingCtx documents: every *new* violation's match touches an
// updated node (matches are monotone, and attribute writes land on a
// match's own bindings), and an *existing* violation can only change
// status if its match touches an updated node. Touched entries are
// re-checked with FailingLiteral — which also refreshes the recorded
// evidence, since an update can fix the recorded literal while
// breaking another — and the touched neighborhoods are searched for
// new violations, deduplicated against what is already stored.
//
// Entries carry their canonical sort key and dense binding vector,
// computed once at admission: a delta re-sorts nothing and scans
// nothing — each (already-sorted) newcomer's position and each repaired
// entry's position are binary-searched, and the entries between them
// move as blocks. Readers copy the set out with AppendViolations,
// straight from the sorted entries into a slice they own: three words
// per violation, the Match map and the Literal shared.
//
// The store is single-writer: Apply must not run concurrently with
// itself or AppendViolations. Engine.Apply provides the locking.
type ViolationStore struct {
	val    *Validator
	sigma  ged.Set
	gedIdx map[*ged.GED]int
	vs     []*storedViolation
	seen   seenSet
	// byNode indexes live entries by every node their match binds.
	// Lists are pruned of dropped entries as they are visited and the
	// whole index is rebuilt once dross, the dropped references left in
	// unvisited lists, outnumbers the live entries.
	byNode map[graph.NodeID][]*storedViolation
	dross  int
	// stamp deduplicates multi-bind entries within one Apply.
	stamp uint64
	// maintenance counters (Observe); nil-safe no-op sinks by default.
	ctrRecheck, ctrDrop, ctrFresh *obs.Counter
}

// storedViolation is one maintained violation with its admission-time
// derived data.
type storedViolation struct {
	v       Violation
	gi      int
	key     string         // canonical within-GED sort key
	bind    []graph.NodeID // match bindings in variable order
	dropped bool
	stamp   uint64
}

func (e *storedViolation) less(o *storedViolation) bool {
	if e.gi != o.gi {
		return e.gi < o.gi
	}
	return e.key < o.key
}

// admit indexes v, of rule gi and with binding vector bind (retained),
// as a stored entry.
func (st *ViolationStore) admit(v Violation, gi int, bind []graph.NodeID) *storedViolation {
	e := &storedViolation{
		v:    v,
		gi:   gi,
		key:  string(appendViolationKey(nil, v)),
		bind: bind,
	}
	for _, n := range distinctBind(bind) {
		st.byNode[n] = append(st.byNode[n], e)
	}
	return e
}

// distinctBind returns bind's distinct nodes (in place of a set; match
// vectors are tiny).
func distinctBind(bind []graph.NodeID) []graph.NodeID {
	out := bind[:0:0]
	for i, n := range bind {
		dup := false
		for _, m := range bind[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// distinctBindCount is len(distinctBind(bind)) without the allocation.
func distinctBindCount(bind []graph.NodeID) int {
	count := 0
	for i, n := range bind {
		dup := false
		for _, m := range bind[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			count++
		}
	}
	return count
}

// NewViolationStoreCtx seeds a maintained violation set with one full
// sequential validation through the prepared validator — share the
// Engine's (or any existing) validator to reuse its compiled plans;
// build a one-off with NewValidatorOn otherwise. On cancellation the
// partial store is not returned: a store is either complete or absent.
func NewViolationStoreCtx(ctx context.Context, val *Validator) (*ViolationStore, error) {
	return NewViolationStoreParallelCtx(ctx, val, 1)
}

// NewViolationStoreParallelCtx is NewViolationStoreCtx with the seeding
// validation data-parallel across workers (1 = sequential, <= 0 =
// GOMAXPROCS); the resulting store is identical — seeding is the one
// O(|G|) step of the store's life, so it deserves the same parallelism
// full validation gets.
func NewViolationStoreParallelCtx(ctx context.Context, val *Validator, workers int) (*ViolationStore, error) {
	vs, err := val.RunParallelCtx(ctx, 0, workers)
	if err != nil {
		return nil, err
	}
	return NewViolationStoreSeeded(val, vs), nil
}

// NewViolationStoreSeeded builds a maintained store over val's snapshot
// from an externally computed violation set — the complete violations of
// val's rules against val's snapshot, in any order (the sharded engine
// seeds per-shard stores this way, from a partitioned parallel search
// instead of val's own run). The slice is not retained; entries are
// admitted and put into canonical order.
func NewViolationStoreSeeded(val *Validator, vs []Violation) *ViolationStore {
	sigma := val.sigma
	st := &ViolationStore{
		val:    val,
		sigma:  sigma,
		gedIdx: make(map[*ged.GED]int, len(sigma)),
		byNode: make(map[graph.NodeID][]*storedViolation),
	}
	for i, d := range sigma {
		st.gedIdx[d] = i
	}
	st.vs = st.appendNew(make([]*storedViolation, 0, len(vs)), vs)
	sort.Slice(st.vs, func(i, j int) bool { return st.vs[i].less(st.vs[j]) })
	return st
}

// Snapshot returns the snapshot the store currently reflects.
func (st *ViolationStore) Snapshot() *graph.Snapshot { return st.val.Snapshot() }

// Sigma returns the rule set the store maintains violations of.
func (st *ViolationStore) Sigma() ged.Set { return st.sigma }

// AppendViolations appends the maintained set, in canonical order, to
// dst and returns the extended slice; limit > 0 appends only the
// canonically-least limit violations. The appended elements belong to
// the caller; the Match maps and Literal pointers they hold are shared
// with the store and read-only.
func (st *ViolationStore) AppendViolations(dst []Violation, limit int) []Violation {
	vs := st.vs
	if limit > 0 && len(vs) > limit {
		vs = vs[:limit]
	}
	dst = slices.Grow(dst, len(vs))
	for _, e := range vs {
		dst = append(dst, e.v)
	}
	return dst
}

// Len returns the current violation count.
func (st *ViolationStore) Len() int { return len(st.vs) }

// Apply advances the store to snap — the delta-updated successor of the
// store's current snapshot — where touched are the delta's touched
// nodes (Delta.TouchedNodes). On a non-nil error the store may reflect
// only part of the delta; callers should discard and re-seed it.
//
// Apply is Recheck (drop/refresh the stored entries the delta touches)
// followed by the validator's own touched-neighborhood search feeding
// AdmitFresh. Callers that find the fresh violations elsewhere — the
// sharded engine searches across shard queues — run the two halves
// directly.
func (st *ViolationStore) Apply(ctx context.Context, snap *graph.Snapshot, touched []graph.NodeID) error {
	if err := st.Recheck(ctx, snap, touched); err != nil || len(touched) == 0 {
		return err
	}
	// Find the new violations around the touched nodes; matches already
	// stored re-surface here and are dropped by the key set. The fresh
	// list arrives canonically sorted, so it merges rather than
	// re-sorting the store.
	fresh, err := st.val.TouchingCtx(ctx, touched, 0)
	st.AdmitFresh(fresh)
	return err
}

// Recheck is the first half of Apply: it rebases the store's validator
// onto snap and re-checks exactly the stored violations whose match
// binds a touched node, dropping the ones that no longer violate and
// refreshing recorded evidence. It does not search for new violations.
func (st *ViolationStore) Recheck(ctx context.Context, snap *graph.Snapshot, touched []graph.NodeID) error {
	st.val = st.val.Rebase(snap)
	if len(touched) == 0 {
		return ctx.Err()
	}
	// Re-check exactly the stored violations whose match the delta
	// touches — an untouched match cannot have changed status. The
	// index lists are compacted of dropped entries as a side effect.
	st.stamp++
	var drops []*storedViolation
	for _, n := range touched {
		list := st.byNode[n]
		if len(list) == 0 {
			continue
		}
		live := list[:0]
		for _, e := range list {
			if e.dropped {
				st.dross--
				continue
			}
			live = append(live, e)
			if e.stamp == st.stamp {
				continue
			}
			e.stamp = st.stamp
			st.ctrRecheck.Inc()
			l, still := FailingLiteral(snap, e.v)
			switch {
			case !still:
				st.ctrDrop.Inc()
				st.seen.remove(e.gi, e.bind)
				e.dropped = true
				// The entry appears in one index list per distinct
				// bound node; one reference is pruned right here.
				st.dross += distinctBindCount(e.bind) - 1
				live = live[:len(live)-1]
				drops = append(drops, e)
			case l != e.v.Literal:
				// The update fixed the recorded literal but broke
				// another; keep the evidence current.
				e.v.Literal = l
			}
		}
		if len(live) == 0 {
			delete(st.byNode, n)
		} else {
			st.byNode[n] = live
		}
	}
	if len(drops) > 0 {
		st.removeDropped(drops)
	}
	if st.dross > len(st.vs)+64 {
		st.rebuildIndex()
	}
	return ctx.Err()
}

// AdmitFresh is the second half of Apply: it merges externally found
// fresh violations into the store. The input must be verified against
// the store's current snapshot and canonically sorted (SortViolations);
// duplicates — of stored entries or within vs — are dropped by the key
// set, so re-discovering a maintained violation is harmless.
func (st *ViolationStore) AdmitFresh(vs []Violation) {
	if add := st.appendNew(nil, vs); len(add) > 0 {
		st.ctrFresh.Add(uint64(len(add)))
		st.vs = mergeStored(st.vs, add)
	}
}

// appendNew admits the violations of vs the key set has not seen and
// appends their entries to dst.
func (st *ViolationStore) appendNew(dst []*storedViolation, vs []Violation) []*storedViolation {
	var buf [denseKeyVars]graph.NodeID
	for _, v := range vs {
		gi := st.gedIdx[v.GED]
		bind := buf[:0]
		for _, x := range v.GED.Pattern.Vars() {
			bind = append(bind, v.Match[x])
		}
		if st.seen.add(gi, bind) {
			dst = append(dst, st.admit(v, gi, slices.Clone(bind)))
		}
	}
	return dst
}

// rebuildIndex re-derives byNode from the live entries, shedding the
// references dropped entries left in unvisited lists.
func (st *ViolationStore) rebuildIndex() {
	st.byNode = make(map[graph.NodeID][]*storedViolation, len(st.byNode))
	for _, e := range st.vs {
		for _, n := range distinctBind(e.bind) {
			st.byNode[n] = append(st.byNode[n], e)
		}
	}
	st.dross = 0
}

// removeDropped deletes the dropped entries from the sorted set without
// scanning it: each entry's position is binary-searched by its
// (gi, key) — still intact, since husks are released only afterwards —
// and the surviving blocks between the positions move down with copy.
// Until the other index references to a dropped entry are pruned the
// entry is a husk, so the match, key and bindings it holds are released
// here.
func (st *ViolationStore) removeDropped(drops []*storedViolation) {
	pos := make([]int, len(drops))
	for i, e := range drops {
		pos[i] = sort.Search(len(st.vs), func(k int) bool { return !st.vs[k].less(e) })
	}
	slices.Sort(pos)
	w := pos[0]
	for i, p := range pos {
		end := len(st.vs)
		if i+1 < len(pos) {
			end = pos[i+1]
		}
		w += copy(st.vs[w:], st.vs[p+1:end])
	}
	clear(st.vs[w:])
	st.vs = st.vs[:w]
	for _, e := range drops {
		e.v, e.key, e.bind = Violation{}, "", nil
	}
}

// mergeStored folds the sorted newcomers b into the sorted store a in
// place, reusing a's capacity (growing it only amortizedly): from the
// last newcomer back, each one's position among the entries still
// unplaced is binary-searched, and the block of entries after it moves
// up by the number of newcomers still to place. The cost is
// O(|b| log |a|) comparisons plus one memmove of the entries from the
// first insertion point on, never a comparison per stored entry.
func mergeStored(a, b []*storedViolation) []*storedViolation {
	end := len(a)
	out := append(a, b...)
	for j := len(b) - 1; j >= 0; j-- {
		p := sort.Search(end, func(k int) bool { return b[j].less(out[k]) })
		copy(out[p+j+1:], out[p:end])
		out[p+j] = b[j]
		end = p
	}
	return out
}
