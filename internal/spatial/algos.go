package spatial

import (
	"fmt"
	"sort"
	"time"

	"mqdp/internal/core"
)

// GreedySC is the spatiotemporal greedy set cover: repeatedly select the
// post covering the most uncovered (post, label) pairs, where coverage
// requires both radii. Candidate evaluation filters by the time window first
// (cheap, sorted) and checks distance only inside it, so the cost is
// O(rounds · pairs-in-window). Set cover's greedy bound H(d) ≤ 1 + ln d,
// d the most pairs one post covers, carries over unchanged.
func (in *Instance) GreedySC(th Thresholds) (*Cover, error) {
	if err := th.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	// uncovered[a][k] over LP(a) positions.
	uncovered := make([][]bool, in.numLabels)
	remaining := 0
	for a := 0; a < in.numLabels; a++ {
		uncovered[a] = make([]bool, len(in.byLabel[a]))
		for k := range uncovered[a] {
			uncovered[a][k] = true
		}
		remaining += len(in.byLabel[a])
	}
	gain := func(i int) int {
		total := 0
		for _, a := range in.posts[i].Labels {
			lp := in.byLabel[a]
			from, to := core.WithinRange(len(lp), in.timeAt(a), in.posts[i].Time, th.TimeSec)
			for k := from; k < to; k++ {
				if uncovered[a][k] && in.Covers(th, i, int(lp[k])) {
					total++
				}
			}
		}
		return total
	}
	var sel []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for i := range in.posts {
			if g := gain(i); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("spatial: uncovered pairs remain but no post has positive gain")
		}
		for _, a := range in.posts[best].Labels {
			lp := in.byLabel[a]
			from, to := core.WithinRange(len(lp), in.timeAt(a), in.posts[best].Time, th.TimeSec)
			for k := from; k < to; k++ {
				if uncovered[a][k] && in.Covers(th, best, int(lp[k])) {
					uncovered[a][k] = false
					remaining--
				}
			}
		}
		sel = append(sel, best)
	}
	sort.Ints(sel)
	return &Cover{Selected: sel, Algorithm: "Spatial-GreedySC", Elapsed: time.Since(start)}, nil
}

// TimeScan generalizes Algorithm Scan: per label, walk the time-sorted list
// and, at each leftmost uncovered post, select the candidate in its time
// window that covers it (both radii) and whose time reach extends furthest;
// repeat until the label is fully covered. Unlike the 1-D case a selection
// does not cover a contiguous time range (distance may exclude interior
// posts), so the scan tracks per-position coverage explicitly. It stays a
// factor-s approximation relative to per-label optima only in time-dominant
// workloads; it is the cheap baseline to GreedySC.
func (in *Instance) TimeScan(th Thresholds) (*Cover, error) {
	if err := th.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	selected := make([]bool, len(in.posts))
	for a := 0; a < in.numLabels; a++ {
		lp := in.byLabel[a]
		covered := make([]bool, len(lp))
		for next := 0; next < len(lp); next++ {
			if covered[next] {
				continue
			}
			left := int(lp[next])
			from, to := core.WithinRange(len(lp), in.timeAt(core.Label(a)), in.posts[left].Time, th.TimeSec)
			best, bestReach := -1, 0.0
			for k := from; k < to; k++ {
				cand := int(lp[k])
				if !in.Covers(th, cand, left) {
					continue
				}
				if reach := in.posts[cand].Time + th.TimeSec; best == -1 || reach > bestReach {
					best, bestReach = cand, reach
				}
			}
			if best == -1 {
				best = left // a post always covers itself
			}
			selected[best] = true
			// Mark everything the pick covers for this label.
			bFrom, bTo := core.WithinRange(len(lp), in.timeAt(core.Label(a)), in.posts[best].Time, th.TimeSec)
			for k := bFrom; k < bTo; k++ {
				if !covered[k] && in.Covers(th, best, int(lp[k])) {
					covered[k] = true
				}
			}
		}
	}
	var sel []int
	for i, ok := range selected {
		if ok {
			sel = append(sel, i)
		}
	}
	return &Cover{Selected: sel, Algorithm: "Spatial-TimeScan", Elapsed: time.Since(start)}, nil
}

// Exhaustive solves tiny instances exactly by branch-and-bound on the
// set-cover structure, mirroring core.Exhaustive.
func (in *Instance) Exhaustive(th Thresholds) (*Cover, error) {
	if err := th.validate(); err != nil {
		return nil, err
	}
	if in.Len() > 48 {
		return nil, fmt.Errorf("spatial: %d posts too many for exhaustive search", in.Len())
	}
	start := time.Now()
	type pair struct {
		post  int
		label core.Label
	}
	var pairs []pair
	for i := range in.posts {
		for _, a := range in.posts[i].Labels {
			pairs = append(pairs, pair{i, a})
		}
	}
	coverers := make([][]int, len(pairs))
	coversOf := make([][]int, in.Len())
	for u, pr := range pairs {
		lp := in.byLabel[pr.label]
		from, to := core.WithinRange(len(lp), in.timeAt(pr.label), in.posts[pr.post].Time, th.TimeSec)
		for k := from; k < to; k++ {
			i := int(lp[k])
			if in.Covers(th, i, pr.post) {
				coverers[u] = append(coverers[u], i)
				coversOf[i] = append(coversOf[i], u)
			}
		}
	}
	ub, err := in.GreedySC(th)
	if err != nil {
		return nil, err
	}
	best := append([]int(nil), ub.Selected...)
	bestSize := len(best)
	maxSet := 1
	for i := range coversOf {
		if len(coversOf[i]) > maxSet {
			maxSet = len(coversOf[i])
		}
	}
	uncoveredCnt := len(pairs)
	coverCount := make([]int, len(pairs))
	inSel := make([]bool, in.Len())
	var sel []int
	var search func()
	search = func() {
		if uncoveredCnt == 0 {
			if len(sel) < bestSize {
				bestSize = len(sel)
				best = append([]int(nil), sel...)
			}
			return
		}
		if len(sel)+(uncoveredCnt+maxSet-1)/maxSet >= bestSize {
			return
		}
		branch, opts := -1, 0
		for u := range pairs {
			if coverCount[u] > 0 {
				continue
			}
			n := 0
			for _, i := range coverers[u] {
				if !inSel[i] {
					n++
				}
			}
			if branch == -1 || n < opts {
				branch, opts = u, n
			}
			if n <= 1 {
				break
			}
		}
		if opts == 0 {
			return
		}
		for _, i := range coverers[branch] {
			if inSel[i] {
				continue
			}
			inSel[i] = true
			sel = append(sel, i)
			for _, u := range coversOf[i] {
				if coverCount[u] == 0 {
					uncoveredCnt--
				}
				coverCount[u]++
			}
			search()
			for _, u := range coversOf[i] {
				coverCount[u]--
				if coverCount[u] == 0 {
					uncoveredCnt++
				}
			}
			sel = sel[:len(sel)-1]
			inSel[i] = false
		}
	}
	search()
	sort.Ints(best)
	return &Cover{Selected: best, Algorithm: "Spatial-Exhaustive", Elapsed: time.Since(start), Optimal: true}, nil
}
