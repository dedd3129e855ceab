package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrExhaustiveTooLarge is returned when an instance is too big for the
// exhaustive solver.
var ErrExhaustiveTooLarge = errors.New("core: instance too large for exhaustive search")

// maxExhaustivePosts bounds the exhaustive solver; above this the search
// tree is hopeless and callers should use OPT or an approximation.
const maxExhaustivePosts = 64

// Exhaustive solves MQDP exactly by branch-and-bound over the underlying
// set-cover structure: it repeatedly branches on the uncovered (post, label)
// pair with the fewest candidate coverers. It accepts any LambdaModel
// (including directional per-post radii, unlike OPT) but is only feasible
// for tiny instances; it exists as ground truth for validating OPT and for
// the proportional-diversity tests.
func (in *Instance) Exhaustive(m LambdaModel) (*Cover, error) {
	start := time.Now()
	if in.Len() > maxExhaustivePosts {
		return nil, fmt.Errorf("%w: %d posts > %d", ErrExhaustiveTooLarge, in.Len(), maxExhaustivePosts)
	}
	// Enumerate the universe of (post, label) pairs and their coverers.
	type pair struct {
		post  int
		label Label
	}
	var pairs []pair
	for i := range in.posts {
		for _, a := range in.posts[i].Labels {
			pairs = append(pairs, pair{i, a})
		}
	}
	coverers := make([][]int, len(pairs)) // coverers[u] = posts covering pair u
	coversOf := make([][]int, in.Len())   // coversOf[i] = pair ids post i covers
	for u, pr := range pairs {
		lp := in.byLabel[pr.label]
		from, to := in.windowInLabel(pr.label, in.posts[pr.post].Value, m.Max())
		for k := from; k < to; k++ {
			i := int(lp[k])
			if in.Covers(m, i, pr.post, pr.label) {
				coverers[u] = append(coverers[u], i)
				coversOf[i] = append(coversOf[i], u)
			}
		}
	}

	// Upper bound: the better of Scan and GreedySC.
	best := in.Scan(m).Selected
	if g := in.GreedySC(m); len(g.Selected) < len(best) {
		best = g.Selected
	}
	bestSize := len(best)

	uncovered := len(pairs)
	coverCount := make([]int, len(pairs)) // selected posts covering pair u
	inSel := make([]bool, in.Len())
	var sel []int

	maxSetSize := 1
	for i := range coversOf {
		if len(coversOf[i]) > maxSetSize {
			maxSetSize = len(coversOf[i])
		}
	}

	var search func()
	search = func() {
		if uncovered == 0 {
			if len(sel) < bestSize {
				bestSize = len(sel)
				best = append([]int(nil), sel...)
			}
			return
		}
		// Lower bound: each further post covers ≤ maxSetSize new pairs.
		need := (uncovered + maxSetSize - 1) / maxSetSize
		if len(sel)+need >= bestSize {
			return
		}
		// Branch on the uncovered pair with the fewest unselected coverers.
		branch, branchOptions := -1, 0
		for u := range pairs {
			if coverCount[u] > 0 {
				continue
			}
			options := 0
			for _, i := range coverers[u] {
				if !inSel[i] {
					options++
				}
			}
			if branch == -1 || options < branchOptions {
				branch, branchOptions = u, options
			}
			if options <= 1 {
				break
			}
		}
		if branchOptions == 0 {
			return // infeasible branch (cannot happen from the root)
		}
		for _, i := range coverers[branch] {
			if inSel[i] {
				continue
			}
			inSel[i] = true
			sel = append(sel, i)
			for _, u := range coversOf[i] {
				if coverCount[u] == 0 {
					uncovered--
				}
				coverCount[u]++
			}
			search()
			for _, u := range coversOf[i] {
				coverCount[u]--
				if coverCount[u] == 0 {
					uncovered++
				}
			}
			sel = sel[:len(sel)-1]
			inSel[i] = false
		}
	}
	search()
	return &Cover{
		Selected:  normalizeSelected(append([]int(nil), best...)),
		Algorithm: "Exhaustive",
		Elapsed:   time.Since(start),
		Optimal:   true,
	}, nil
}
