package core

import (
	"slices"
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

// scanShardMin is the smallest instance, in (post, label) pairs, whose
// per-label passes Scan spreads over GOMAXPROCS goroutines: below it, waking
// the idle cores and merging the selections cost more than the split saves.
// On 2 vCPUs, one-shot calls (as a Solve makes) broke even near 80k pairs
// with five or more labels and near 120k with two; BenchmarkSolverScanShard
// re-derives it. Pairs are the unit because a pass costs one step per pair.
// Tests set it to 0 or math.MaxInt to force either path.
var scanShardMin = 120_000

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
//
// The labels' passes are independent, so on an instance of at least
// scanShardMin pairs with two or more labels they run on up to GOMAXPROCS
// goroutines; the merged selection is the serial one either way.
func (in *Instance) Scan(m LambdaModel) *Cover {
	start := time.Now()
	var sel []int
	if w := parallel.Workers(0); w > 1 && in.numLabels > 1 && in.pairs >= scanShardMin {
		perLabel := parallel.Map(w, in.numLabels, func(a int) []int {
			var local []int
			in.scanLabel(m, Label(a), nil, &local)
			return local
		})
		sel = normalizeSelected(slices.Concat(perLabel...))
	} else {
		scratch := scanScratchPool.Get().(*scanScratch)
		local := scratch.sel[:0]
		for a := 0; a < in.numLabels; a++ {
			in.scanLabel(m, Label(a), nil, &local)
		}
		sel = cloneSelection(normalizeSelected(local))
		scratch.sel = local[:0]
		scanScratchPool.Put(scratch)
	}
	return &Cover{Selected: sel, Algorithm: "Scan", Elapsed: time.Since(start)}
}

// ScanPlus implements the Scan+ variant: identical per-label scans, but when
// a post is selected for one label, every (post, label) pair it covers is
// marked satisfied, so the scans of later labels skip those posts.
//
// When no post carries two labels (s ≤ 1) a selection covers pairs of its
// own label only, so there is nothing to skip across labels: every label
// order yields Scan's selection, and ScanPlus returns it under its own name.
func (in *Instance) ScanPlus(m LambdaModel, order ScanOrder) *Cover {
	if in.maxLabels <= 1 {
		c := in.Scan(m)
		c.Algorithm = "Scan+"
		return c
	}
	start := time.Now()
	sel := in.scanCovered(m, order)
	return &Cover{Selected: sel, Algorithm: "Scan+", Elapsed: time.Since(start)}
}

// scanCovered is Scan+'s covered-bitmap pass: the labels' scans in the
// given order, each skipping the pairs earlier selections covered.
func (in *Instance) scanCovered(m LambdaModel, order ScanOrder) []int {
	scratch := scanScratchPool.Get().(*scanScratch)
	covered := scratch.coveredViews(in)
	local := scratch.sel[:0]
	for _, a := range in.labelOrder(order) {
		in.scanLabel(m, a, covered, &local)
	}
	sel := cloneSelection(normalizeSelected(local))
	scratch.sel = local[:0]
	scanScratchPool.Put(scratch)
	return sel
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
