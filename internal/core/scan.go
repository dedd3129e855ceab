package core

import (
	"sort"
	"sync"
	"time"

	"mqdp/internal/parallel"
)

// ScanOrder controls the label processing order of Scan+; the effectiveness
// of its cross-label removal depends on it (§4.3 of the paper).
type ScanOrder int

// Label orderings for Scan+.
const (
	// OrderByID processes labels in id order (the default).
	OrderByID ScanOrder = iota
	// OrderByFrequencyDesc processes labels with the most posts first.
	OrderByFrequencyDesc
	// OrderByFrequencyAsc processes labels with the fewest posts first.
	OrderByFrequencyAsc
)

// scanScratch holds the reusable working buffers of a Scan/Scan+ call: the
// selection sink and the flat covered bitmap (plus its per-label views).
// Pooling them removes the dominant per-call allocations; the final Selected
// slice is copied out at exact size because it escapes into the Cover.
type scanScratch struct {
	sel     []int
	covered []bool
	views   [][]bool
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// coveredViews returns per-label covered bitmaps backed by one flat, zeroed
// buffer (one allocation amortized across calls instead of one per label).
// The views are full slice expressions, so labels cannot append into each
// other's range.
func (s *scanScratch) coveredViews(in *Instance) [][]bool {
	total := in.Pairs()
	if cap(s.covered) < total {
		s.covered = make([]bool, total)
	} else {
		s.covered = s.covered[:total]
		clear(s.covered)
	}
	if cap(s.views) < in.numLabels {
		s.views = make([][]bool, in.numLabels)
	} else {
		s.views = s.views[:in.numLabels]
	}
	off := 0
	for a := 0; a < in.numLabels; a++ {
		n := len(in.byLabel[a])
		s.views[a] = s.covered[off : off+n : off+n]
		off += n
	}
	return s.views
}

// Scan implements Algorithm 3: it solves each label's one-dimensional
// interval-covering problem optimally with a single pass over LP(a) and
// returns the union of the per-label solutions. The approximation factor is
// s, the maximum number of labels on any post, and the running time is
// O(s·|P|) for a fixed λ model.
//
// With a per-post LambdaModel (proportional diversity, §6) coverage is
// directional; the scan then picks, among candidates able to cover the
// leftmost uncovered post, the one whose coverage reaches furthest right.
// For a fixed λ this coincides with the paper's "last post within λ" rule.
func (in *Instance) Scan(m LambdaModel) *Cover { return in.ScanParallel(m, 1) }

// ScanParallel is Scan with the per-label passes sharded over up to workers
// goroutines (0 = GOMAXPROCS, 1 = serial). The labels' interval-cover passes
// are fully independent, so the merged selection is identical to the serial
// one for any worker count.
func (in *Instance) ScanParallel(m LambdaModel, workers int) *Cover {
	start := time.Now()
	var sel []int
	w := parallel.Workers(workers)
	if w <= 1 || in.numLabels <= 1 {
		scratch := scanScratchPool.Get().(*scanScratch)
		local := scratch.sel[:0]
		for a := 0; a < in.numLabels; a++ {
			in.scanLabel(m, Label(a), nil, &local)
		}
		sel = cloneSelection(normalizeSelected(local))
		scratch.sel = local[:0]
		scanScratchPool.Put(scratch)
	} else {
		perLabel := parallel.Map(w, in.numLabels, func(a int) []int {
			var local []int
			in.scanLabel(m, Label(a), nil, &local)
			return local
		})
		sel = normalizeSelected(concatSelections(perLabel))
	}
	return &Cover{Selected: sel, Algorithm: "Scan", Elapsed: time.Since(start)}
}

// ScanPlus implements the Scan+ variant: identical per-label scans, but when
// a post is selected for one label, every (post, label) pair it covers is
// marked satisfied, so the scans of later labels skip those posts.
func (in *Instance) ScanPlus(m LambdaModel, order ScanOrder) *Cover {
	return in.ScanPlusParallel(m, order, 1)
}

// ScanPlusParallel is ScanPlus sharded over the connected components of the
// label co-occurrence graph (two labels connect when some post carries both).
// Cross-label removal only ever acts within a component — a selection marks
// pairs covered only on the selected post's own labels — so components are
// independent subproblems; within each, labels keep their serial relative
// order. The result is identical to the serial pass for any worker count.
// When the labels form a single component (very high overlap) the pass
// degenerates to serial; Scan's per-label sharding has no such limit.
func (in *Instance) ScanPlusParallel(m LambdaModel, order ScanOrder, workers int) *Cover {
	start := time.Now()
	scratch := scanScratchPool.Get().(*scanScratch)
	covered := scratch.coveredViews(in)
	labels := in.labelOrder(order)
	var sel []int
	w := parallel.Workers(workers)
	if w <= 1 || in.numLabels <= 1 {
		local := scratch.sel[:0]
		for _, a := range labels {
			in.scanLabel(m, a, covered, &local)
		}
		sel = cloneSelection(normalizeSelected(local))
		scratch.sel = local[:0]
	} else {
		comps := in.labelComponents(labels)
		perComp := parallel.Map(w, len(comps), func(c int) []int {
			var local []int
			for _, a := range comps[c] {
				in.scanLabel(m, a, covered, &local)
			}
			return local
		})
		sel = normalizeSelected(concatSelections(perComp))
	}
	scanScratchPool.Put(scratch)
	return &Cover{Selected: sel, Algorithm: "Scan+", Elapsed: time.Since(start)}
}

// labelOrder returns label ids in the requested processing order.
func (in *Instance) labelOrder(order ScanOrder) []Label {
	labels := make([]Label, in.numLabels)
	for a := range labels {
		labels[a] = Label(a)
	}
	switch order {
	case OrderByFrequencyDesc:
		sort.SliceStable(labels, func(i, j int) bool {
			return len(in.byLabel[labels[i]]) > len(in.byLabel[labels[j]])
		})
	case OrderByFrequencyAsc:
		sort.SliceStable(labels, func(i, j int) bool {
			return len(in.byLabel[labels[i]]) < len(in.byLabel[labels[j]])
		})
	}
	return labels
}

// labelComponents partitions ordered into the connected components of the
// label co-occurrence graph, preserving the given label order within each
// component (and ordering components by first appearance). Every post's
// labels lie in exactly one component, so component scans touch disjoint
// covered ranges and disjoint candidate posts.
func (in *Instance) labelComponents(ordered []Label) [][]Label {
	parent := make([]int32, in.numLabels)
	for a := range parent {
		parent[a] = int32(a)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for i := range in.posts {
		labels := in.posts[i].Labels
		for k := 1; k < len(labels); k++ {
			ra, rb := find(labels[0]), find(labels[k])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	slot := make([]int32, in.numLabels)
	for a := range slot {
		slot[a] = -1
	}
	var comps [][]Label
	for _, a := range ordered {
		r := find(a)
		if slot[r] < 0 {
			slot[r] = int32(len(comps))
			comps = append(comps, nil)
		}
		comps[slot[r]] = append(comps[slot[r]], a)
	}
	return comps
}

// scanLabel covers all not-yet-covered posts of label a, appending choices to
// sel. covered is nil for plain Scan (labels are processed fully
// independently, as in Algorithm 3); for Scan+, covered[b][k] marks position
// k of LP(b) as satisfied and is updated for every label of each selection.
func (in *Instance) scanLabel(m LambdaModel, a Label, covered [][]bool, sel *[]int) {
	lp := in.byLabel[a]
	n := len(lp)
	maxR := m.Max()
	next := 0 // frontier: position of the next possibly-uncovered post
	for {
		if covered != nil {
			for next < n && covered[a][next] {
				next++
			}
		}
		if next >= n {
			return
		}
		left := next
		leftVal := in.posts[lp[left]].Value
		// Pick the candidate whose coverage of `left` reaches furthest
		// right. Candidates sit at positions ≥ left within maxR of
		// left's value; `left` itself always qualifies (radius ≥ 0
		// covers distance 0).
		best, bestR := left, m.Lambda(int(lp[left]), a)
		bestReach := leftVal + bestR // ranks candidates; Within decides coverage
		for k := left + 1; k < n; k++ {
			v := in.posts[lp[k]].Value
			if !Within(leftVal, v, maxR) {
				break
			}
			r := m.Lambda(int(lp[k]), a)
			if Within(leftVal, v, r) {
				if reach := v + r; reach > bestReach {
					best, bestR, bestReach = k, r, reach
				}
			}
		}
		in.selectPost(m, int(lp[best]), covered, sel)
		// best covers left..best (its window is one interval holding
		// left), then onward while Within holds.
		bestVal := in.posts[lp[best]].Value
		next = best + 1
		for next < n && Within(bestVal, in.posts[lp[next]].Value, bestR) {
			next++
		}
	}
}

// selectPost appends post i to sel and, in Scan+ mode (covered non-nil),
// marks every (post, label) pair i covers as satisfied.
func (in *Instance) selectPost(m LambdaModel, i int, covered [][]bool, sel *[]int) {
	*sel = append(*sel, i)
	if covered == nil {
		return
	}
	for _, b := range in.posts[i].Labels {
		from, to := in.windowInLabel(b, in.posts[i].Value, m.Lambda(i, b))
		cov := covered[b]
		for k := from; k < to; k++ {
			cov[k] = true
		}
	}
}

// cloneSelection copies a normalized selection out of a pooled buffer.
func cloneSelection(sel []int) []int {
	out := make([]int, len(sel))
	copy(out, sel)
	return out
}

// concatSelections flattens per-shard selections in shard order.
func concatSelections(shards [][]int) []int {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	out := make([]int, 0, total)
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}
