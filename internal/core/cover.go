package core

import (
	"fmt"
	"sort"
	"time"
)

// Cover is the result of a solver: the selected post indexes (in instance
// dimension order) plus bookkeeping about how it was obtained.
type Cover struct {
	// Selected holds indexes into the instance's dimension order,
	// ascending and without duplicates.
	Selected []int
	// Algorithm names the solver that produced the cover.
	Algorithm string
	// Elapsed is the wall-clock solving time.
	Elapsed time.Duration
	// Optimal is true only for exact solvers (OPT, Exhaustive).
	Optimal bool
}

// Size returns the cover cardinality.
func (c *Cover) Size() int { return len(c.Selected) }

// Posts materializes the selected posts of inst.
func (c *Cover) Posts(inst *Instance) []Post {
	out := make([]Post, len(c.Selected))
	for k, i := range c.Selected {
		out[k] = inst.Post(i)
	}
	return out
}

// IDs returns the application IDs of the selected posts, in dimension order.
func (c *Cover) IDs(inst *Instance) []int64 {
	out := make([]int64, len(c.Selected))
	for k, i := range c.Selected {
		out[k] = inst.Post(i).ID
	}
	return out
}

// normalizeSelected sorts and deduplicates a selected-index set.
func normalizeSelected(sel []int) []int {
	sort.Ints(sel)
	out := sel[:0]
	for i, v := range sel {
		if i == 0 || sel[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// CoverageError describes the first uncovered (post, label) pair found by
// VerifyCover.
type CoverageError struct {
	PostIndex int
	PostID    int64
	Label     Label
}

// Error implements error.
func (e *CoverageError) Error() string {
	return fmt.Sprintf("core: post %d (index %d) is not λ-covered on label %d", e.PostID, e.PostIndex, e.Label)
}

// VerifyCover independently checks that selected λ-covers the instance under
// model m: every post must be covered on every one of its labels by some
// selected post. It runs in O(Σ_a(|selected_a| log + |LP(a)|)) and is used by
// the test-suite after every solver call.
func (in *Instance) VerifyCover(m LambdaModel, selected []int) error {
	for _, i := range selected {
		if i < 0 || i >= len(in.posts) {
			return fmt.Errorf("core: selected index %d out of range [0,%d)", i, len(in.posts))
		}
	}
	for a := 0; a < in.numLabels; a++ {
		lp := in.byLabel[a]
		if len(lp) == 0 {
			continue
		}
		covered := make([]bool, len(lp))
		for _, i := range selected {
			if !hasLabel(in.posts[i].Labels, Label(a)) {
				continue
			}
			from, to := in.windowInLabel(Label(a), in.posts[i].Value, m.Lambda(i, Label(a)))
			for k := from; k < to; k++ {
				covered[k] = true
			}
		}
		for k, ok := range covered {
			if !ok {
				idx := int(lp[k])
				return &CoverageError{PostIndex: idx, PostID: in.posts[idx].ID, Label: Label(a)}
			}
		}
	}
	return nil
}

// hasLabel reports whether the sorted label slice contains a.
func hasLabel(labels []Label, a Label) bool {
	lo, hi := 0, len(labels)
	for lo < hi {
		mid := (lo + hi) / 2
		if labels[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(labels) && labels[lo] == a
}
