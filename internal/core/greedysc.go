package core

import (
	"container/heap"
	"time"

	"mqdp/internal/fenwick"
)

// GreedySC implements Algorithm 2: MQDP is transformed into a set-cover
// instance whose universe is the (post, label) incidence pairs and whose sets
// are the posts (set S_k holds every pair post k λ-covers); the greedy
// set-cover rule then repeatedly selects the post covering the most
// still-uncovered pairs. The approximation factor is the greedy set-cover
// bound H(d) ≤ 1 + ln d, where d is the most (post, label) pairs one post
// covers. (The paper's ln(|P|·|L|) reads 0 on a one-post, one-label
// instance, where any cover has size 1.)
//
// Implementation note: the selections are exactly those of the paper's
// pseudocode with ties broken toward the lowest post index, but gains are
// evaluated lazily with a max-heap over Fenwick-tree range counts instead of
// rescanning every set each round. Laziness is sound because gains only
// shrink as pairs get covered (submodularity), so a popped entry whose
// recomputed gain still beats the runner-up is the true argmax.
func (in *Instance) GreedySC(m LambdaModel) *Cover {
	start := time.Now()
	sel := in.greedySC(m, true)
	return &Cover{Selected: sel, Algorithm: "GreedySC", Elapsed: time.Since(start)}
}

// GreedySCNaive runs the literal Algorithm 2 loop, rescanning all candidate
// gains on every round. It exists to cross-check GreedySC in tests and as the
// reference point for the efficiency ablation; prefer GreedySC. The only
// deviation from a full rescan is a sound skip: a post whose gain upper bound
// (its last computed gain, which submodularity keeps valid) cannot beat the
// round's current best is not re-evaluated, which changes no selection.
func (in *Instance) GreedySCNaive(m LambdaModel) *Cover {
	start := time.Now()
	sel := in.greedySC(m, false)
	return &Cover{Selected: sel, Algorithm: "GreedySC-naive", Elapsed: time.Since(start)}
}

// greedyState tracks uncovered (post, label) pairs per label.
type greedyState struct {
	in        *Instance
	m         LambdaModel
	uncovered [][]bool        // uncovered[a][k] for position k of LP(a)
	counts    []*fenwick.Tree // counts[a] mirrors uncovered[a]
	remaining int             // total uncovered pairs
}

func newGreedyState(in *Instance, m LambdaModel) *greedyState {
	g := &greedyState{
		in:        in,
		m:         m,
		uncovered: make([][]bool, in.numLabels),
		counts:    make([]*fenwick.Tree, in.numLabels),
	}
	for a := 0; a < in.numLabels; a++ {
		n := len(in.byLabel[a])
		g.uncovered[a] = make([]bool, n)
		g.counts[a] = fenwick.New(n)
		for k := 0; k < n; k++ {
			g.uncovered[a][k] = true
			g.counts[a].Add(k, 1)
		}
		g.remaining += n
	}
	return g
}

// gain returns |S_i ∩ uncovered|: the number of uncovered pairs post i covers.
func (g *greedyState) gain(i int) int {
	p := g.in.posts[i]
	total := 0
	for _, a := range p.Labels {
		from, to := g.in.windowInLabel(a, p.Value, g.m.Lambda(i, a))
		total += g.counts[a].RangeSum(from, to)
	}
	return total
}

// take selects post i, covering every uncovered pair in its windows.
func (g *greedyState) take(i int) {
	p := g.in.posts[i]
	for _, a := range p.Labels {
		from, to := g.in.windowInLabel(a, p.Value, g.m.Lambda(i, a))
		unc := g.uncovered[a]
		for k := from; k < to; k++ {
			if unc[k] {
				unc[k] = false
				g.counts[a].Add(k, -1)
				g.remaining--
			}
		}
	}
}

// gainHeap orders candidates by gain descending, post index ascending.
type gainHeap struct {
	gains   []int
	indexes []int
}

func (h *gainHeap) Len() int { return len(h.indexes) }
func (h *gainHeap) Less(i, j int) bool {
	if h.gains[i] != h.gains[j] {
		return h.gains[i] > h.gains[j]
	}
	return h.indexes[i] < h.indexes[j]
}
func (h *gainHeap) Swap(i, j int) {
	h.gains[i], h.gains[j] = h.gains[j], h.gains[i]
	h.indexes[i], h.indexes[j] = h.indexes[j], h.indexes[i]
}
func (h *gainHeap) Push(x any) {
	e := x.([2]int)
	h.gains = append(h.gains, e[0])
	h.indexes = append(h.indexes, e[1])
}
func (h *gainHeap) Pop() any {
	n := len(h.indexes) - 1
	e := [2]int{h.gains[n], h.indexes[n]}
	h.gains = h.gains[:n]
	h.indexes = h.indexes[:n]
	return e
}

func (in *Instance) greedySC(m LambdaModel, lazy bool) []int {
	g := newGreedyState(in, m)
	var sel []int
	if !lazy {
		// ub[i] upper-bounds post i's current gain. Gains only shrink as
		// pairs get covered (submodularity), so the initial gain — and later
		// the last recomputed one — stays a valid bound until refreshed.
		// Skipping i when ub[i] ≤ bestGain cannot change the argmax or its
		// lowest-index tie-break: gain(i) ≤ ub[i] ≤ bestGain is never
		// strictly better.
		ub := make([]int, len(in.posts))
		for i := range in.posts {
			ub[i] = g.gain(i)
		}
		for g.remaining > 0 {
			best, bestGain := -1, 0
			for i := range in.posts {
				if ub[i] <= bestGain {
					continue
				}
				gain := g.gain(i)
				ub[i] = gain
				if gain > bestGain {
					best, bestGain = i, gain
				}
			}
			if best < 0 {
				break // unreachable: every pair covers itself
			}
			g.take(best)
			sel = append(sel, best)
		}
		return normalizeSelected(sel)
	}
	h := &gainHeap{
		gains:   make([]int, 0, len(in.posts)),
		indexes: make([]int, 0, len(in.posts)),
	}
	for i := range in.posts {
		if gain := g.gain(i); gain > 0 {
			h.gains = append(h.gains, gain)
			h.indexes = append(h.indexes, i)
		}
	}
	heap.Init(h)
	for g.remaining > 0 && h.Len() > 0 {
		top := heap.Pop(h).([2]int)
		gain, i := g.gain(top[1]), top[1]
		if gain == 0 {
			continue
		}
		if h.Len() > 0 {
			// Stale entry: another candidate may now lead. The entry is
			// current when its fresh gain still beats (or ties ahead of,
			// by index) the runner-up's stored gain, which upper-bounds
			// the runner-up's fresh gain.
			nextGain, nextIdx := h.gains[0], h.indexes[0]
			if gain < nextGain || (gain == nextGain && nextIdx < i) {
				heap.Push(h, [2]int{gain, i})
				continue
			}
		}
		g.take(i)
		sel = append(sel, i)
	}
	return normalizeSelected(sel)
}
