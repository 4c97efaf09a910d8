package reason

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// RunParallelCtx is the data-parallel validator, a first step toward
// the "parallel scalable algorithms for reasoning about GEDs" the paper
// leaves as future work (Section 9). Every worker shares the
// validator's snapshot and compiled plans; the match space of each GED
// is partitioned by pre-binding a pivot variable — the most selective
// constant-literal access path of the antecedent when the snapshot's
// attribute index beats the label postings, the smallest label
// candidate set otherwise — to disjoint candidate blocks; workers
// search the partitions independently and merge their violation lists.
//
// The result is deterministic: violations are returned in the same
// canonical order (by GED index, then by match bindings in variable
// order) regardless of worker count. With a positive limit the workers
// may transiently find more than limit violations; the merged list is
// put into canonical order first and then truncated, so the reported
// prefix is the canonically-least limit violations and is likewise
// deterministic across runs and worker counts.
//
// Every worker checks ctx between candidate matches and between tasks,
// so a cancelled context drains the whole pool promptly; the
// (canonical, possibly partial) violations found before the abort are
// returned alongside ctx's error.
//
// workers ≤ 0 selects GOMAXPROCS; workers == 1 is RunCtx. limit ≤ 0
// returns all violations.
func (v *Validator) RunParallelCtx(ctx context.Context, limit, workers int) ([]Violation, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return v.RunCtx(ctx, limit)
	}
	v.ensurePivots()
	sigma := v.sigma

	// One compiled plan per GED, shared by all workers; tasks are
	// candidate blocks of the GED's pivot variable.
	type task struct {
		gedIdx int
		pivot  pattern.Var
		cands  []graph.NodeID // nil means "run unpartitioned"
	}
	var tasks []task
	for gi := range sigma {
		var pivot pattern.Var
		var cands []graph.NodeID
		if p := v.pivots[gi]; p != nil {
			pivot, cands = p.variable, p.cands
		} else {
			pivot, cands = pivotVar(sigma[gi].Pattern, v.snap)
		}
		if pivot == "" {
			tasks = append(tasks, task{gedIdx: gi})
			continue
		}
		blocks := workers * 4
		block := (len(cands) + blocks - 1) / blocks
		if block == 0 {
			block = 1
		}
		for lo := 0; lo < len(cands); lo += block {
			hi := lo + block
			if hi > len(cands) {
				hi = len(cands)
			}
			tasks = append(tasks, task{gedIdx: gi, pivot: pivot, cands: cands[lo:hi]})
		}
	}

	ch := make(chan task, len(tasks))
	for _, t := range tasks {
		ch <- t
	}
	close(ch)

	var mu sync.Mutex
	var out []Violation
	var wg sync.WaitGroup
	stop := func() bool { return ctx.Err() != nil }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []Violation
			for t := range ch {
				if ctx.Err() != nil {
					break
				}
				d := sigma[t.gedIdx]
				ls := v.lits[t.gedIdx]
				collect := func(bind []graph.NodeID) bool {
					if ctx.Err() != nil {
						return false
					}
					if fail := ls.Violated(v.snap, bind); fail >= 0 {
						local = append(local, ViolationOf(d, bind, fail))
					}
					return true
				}
				pl := v.plans[t.gedIdx]
				if t.cands == nil {
					pl.ForEachDenseCancel(stop, collect)
					continue
				}
				pl.ForEachPivotCancel(t.pivot, t.cands, stop, collect)
			}
			if len(local) > 0 {
				mu.Lock()
				out = append(out, local...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sortViolations(out, sigma)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, ctx.Err()
}

// pivotVar picks the variable with the smallest candidate set, breaking
// ties toward the label with the higher average degree, and returns its
// candidates. An empty pattern returns "".
func pivotVar(p *pattern.Pattern, snap *graph.Snapshot) (pattern.Var, []graph.NodeID) {
	var best pattern.Var
	var bestCands []graph.NodeID
	for _, v := range p.Vars() {
		c := snap.CandidateNodes(p.Label(v))
		switch {
		case best == "" || len(c) < len(bestCands):
			best, bestCands = v, c
		case len(c) == len(bestCands) && snap.LabelAvgDegree(p.Label(v)) > snap.LabelAvgDegree(p.Label(best)):
			best, bestCands = v, c
		}
	}
	return best, bestCands
}

// appendViolationKey appends the canonical within-GED sort key of v —
// the match bindings in variable order — to buf. The ViolationStore
// precomputes and caches these keys so its per-delta maintenance never
// re-strings the stored set.
func appendViolationKey(buf []byte, v Violation) []byte {
	for _, x := range v.GED.Pattern.Vars() {
		buf = append(buf, string(x)...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(v.Match[x]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// SortViolations puts violations into the canonical order every
// validation API reports: by GED index in sigma, then by the match
// bindings in variable order. Exported for callers that assemble
// violation lists from several independent searches (the sharded
// validator merges per-shard result sets with it) and need them in the
// same order the single-snapshot paths produce.
func SortViolations(vs []Violation, sigma ged.Set) { sortViolations(vs, sigma) }

// sortViolations puts violations into a canonical order: by GED index,
// then by the match bindings in variable order. The per-violation keys
// are computed once up front — not inside the comparator, which would
// redo the strconv/concat work O(n log n) times.
func sortViolations(vs []Violation, sigma ged.Set) {
	if len(vs) < 2 {
		return
	}
	idx := make(map[*ged.GED]int, len(sigma))
	for i, d := range sigma {
		idx[d] = i
	}
	type keyed struct {
		gi  int
		key string
		v   Violation
	}
	ks := make([]keyed, len(vs))
	var buf []byte
	for i, v := range vs {
		buf = appendViolationKey(buf[:0], v)
		ks[i] = keyed{gi: idx[v.GED], key: string(buf), v: v}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].gi != ks[j].gi {
			return ks[i].gi < ks[j].gi
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		vs[i] = ks[i].v
	}
}
