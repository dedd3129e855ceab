package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// OPTOptions bound the exact dynamic program, whose state space is
// exponential in the number of labels. Zero values select defaults.
type OPTOptions struct {
	// MaxStates caps the number of distinct end-patterns kept per post.
	// Default 1 << 20.
	MaxStates int
	// MaxWork caps the total number of (predecessor, candidate) merge
	// attempts over the whole run. Default 1 << 28.
	MaxWork int64
	// Trace, when non-nil, receives DP introspection: per-post state
	// counts and the total merge work. Useful for judging feasibility
	// (§7.4: OPT is practical only for |L| ≤ 2–3 and small λ).
	Trace *OPTTrace
}

// OPTTrace records the exact DP's state-space growth.
type OPTTrace struct {
	// StatesPerPost[j] is |Ξ_j|, the end-pattern count after post j+1.
	StatesPerPost []int
	// Work is the total number of (predecessor, candidate) merges.
	Work int64
	// MaxStates is the largest layer encountered.
	MaxStates int
}

func (o *OPTOptions) withDefaults() OPTOptions {
	out := OPTOptions{MaxStates: 1 << 20, MaxWork: 1 << 28}
	if o != nil {
		if o.MaxStates > 0 {
			out.MaxStates = o.MaxStates
		}
		if o.MaxWork > 0 {
			out.MaxWork = o.MaxWork
		}
		out.Trace = o.Trace
	}
	return out
}

// ErrOPTTooLarge is returned when the DP exceeds its configured state or
// work budget; callers should fall back to GreedySC or Scan.
var ErrOPTTooLarge = errors.New("core: OPT state space exceeds configured budget")

// optState is one DP entry: an end-pattern (the latest selected post per
// label, as augmented indexes where 0 is the sentinel), its optimal
// cardinality, and the predecessor state in the previous layer.
type optState struct {
	pattern []int32
	card    int32
	parent  int32 // index into the previous layer's states; -1 for the root
}

// OPT solves MQDP exactly with the end-pattern dynamic program of §4.1
// (Algorithm 1). A sentinel post carrying every label sits at −∞, out of
// every post's reach; its contribution is subtracted from the answer.
// For each post P_j in dimension order the DP enumerates every valid
// j-end-pattern — the function ξ mapping each label to the latest selected
// post carrying it — and the minimum cardinality of a (λ, j)-cover realizing
// it. The run time is O(|P|^(2|L|+1)) in the worst case, so OPT is intended
// for small instances (|L| ≤ 3, short intervals), exactly as in the paper's
// evaluation; larger inputs fail fast with ErrOPTTooLarge.
//
// OPT requires a fixed λ: with per-post radii the latest selected post no
// longer bounds forward coverage, invalidating the end-pattern state (§6).
func (in *Instance) OPT(lambda float64, opts *OPTOptions) (*Cover, error) {
	start := time.Now()
	opt := opts.withDefaults()
	if lambda < 0 {
		return nil, fmt.Errorf("%w: negative lambda %v", ErrBadLambda, lambda)
	}
	n := in.Len()
	L := in.numLabels
	if n == 0 || in.Pairs() == 0 {
		return &Cover{Algorithm: "OPT", Optimal: true, Elapsed: time.Since(start)}, nil
	}

	// Augmented arrays: index 0 is the sentinel, 1..n are the posts.
	vals := make([]float64, n+1)
	vals[0] = math.Inf(-1) // the sentinel covers no post
	for i := 0; i < n; i++ {
		vals[i+1] = in.posts[i].Value
	}
	labelsOf := func(j int) []Label {
		if j == 0 {
			return nil // sentinel: carries all labels; handled specially
		}
		return in.posts[j-1].Labels
	}
	contains := func(j int, a Label) bool {
		if j == 0 {
			return true
		}
		return hasLabel(in.posts[j-1].Labels, a)
	}
	// occ[a]: augmented indexes carrying a, ascending, sentinel first.
	occ := make([][]int32, L)
	for a := 0; a < L; a++ {
		occ[a] = append(occ[a], 0)
		for _, i := range in.byLabel[a] {
			occ[a] = append(occ[a], i+1)
		}
	}
	// f[j]: the largest index whose value is within λ above vals[j].
	f := make([]int, n+1)
	hi := 0
	for j := 0; j <= n; j++ {
		if hi < j {
			hi = j
		}
		for hi+1 <= n && Within(vals[j], vals[hi+1], lambda) {
			hi++
		}
		f[j] = hi
	}
	// lastOcc(a, j): the largest occurrence of a at an index ≤ j.
	lastOcc := func(a Label, j int) int32 {
		o := occ[a]
		k := sort.Search(len(o), func(x int) bool { return o[x] > int32(j) })
		return o[k-1] // o[0] = 0 ≤ j always
	}

	// isValid reports whether pattern is a valid j-end-pattern:
	// (i) each ξ(a) is the latest pattern entry carrying a, and
	// (ii) every occurrence of a at an index ≤ j is within λ of ξ(a)
	//     (the worst case being the last such occurrence).
	isValid := func(pattern []int32, j int) bool {
		for a := 0; a < L; a++ {
			ea := pattern[a]
			for b := 0; b < L; b++ {
				if eb := pattern[b]; eb > ea && contains(int(eb), Label(a)) {
					return false
				}
			}
			// One-sided: an ea after last (a fresh candidate) passes.
			if last := lastOcc(Label(a), j); vals[last] > vals[ea] && !Within(vals[ea], vals[last], lambda) {
				return false
			}
		}
		return true
	}

	type layer struct {
		states []optState
		index  map[string]int32
	}
	key := func(p []int32) string {
		b := make([]byte, 4*len(p))
		for i, v := range p {
			b[4*i] = byte(v)
			b[4*i+1] = byte(v >> 8)
			b[4*i+2] = byte(v >> 16)
			b[4*i+3] = byte(v >> 24)
		}
		return string(b)
	}

	root := optState{pattern: make([]int32, L), card: 1, parent: -1}
	prev := &layer{states: []optState{root}, index: map[string]int32{key(root.pattern): 0}}
	layers := []*layer{prev}

	var work int64
	merged := make([]int32, L)
	newPosts := make([]int32, 0, L)
	for j := 1; j <= n; j++ {
		// Candidate entries per label: 0 means "inherit from η"; fresh
		// entries are occurrences of a in [j, f(j)], which are exactly
		// the selectable posts not visible to the previous layer.
		cands := make([][]int32, L)
		total := 1
		for a := 0; a < L; a++ {
			o := occ[a]
			from := sort.Search(len(o), func(x int) bool { return o[x] >= int32(j) })
			to := sort.Search(len(o), func(x int) bool { return o[x] > int32(f[j]) })
			cands[a] = append([]int32{0}, o[from:to]...)
			total *= len(cands[a])
			if total > opt.MaxStates {
				return nil, fmt.Errorf("%w: %d candidate patterns at post %d", ErrOPTTooLarge, total, j)
			}
		}
		cur := &layer{index: make(map[string]int32)}
		choice := make([]int, L)
		jLabels := labelsOf(j)
		for {
			// Build the candidate (with zeros for inherited entries).
			cand := make([]int32, L)
			for a := 0; a < L; a++ {
				cand[a] = cands[a][choice[a]]
			}
			for pi := range prev.states {
				work++
				if work > opt.MaxWork {
					return nil, fmt.Errorf("%w: work budget exhausted at post %d", ErrOPTTooLarge, j)
				}
				eta := prev.states[pi].pattern
				newPosts = newPosts[:0]
				ok := true
				for a := 0; a < L; a++ {
					if cand[a] == 0 {
						merged[a] = eta[a]
					} else {
						merged[a] = cand[a]
						dup := false
						for _, np := range newPosts {
							if np == cand[a] {
								dup = true
								break
							}
						}
						if !dup {
							newPosts = append(newPosts, cand[a])
						}
					}
				}
				// The inherited latest post of each of P_j's labels must
				// still λ-cover that label of P_j.
				for _, a := range jLabels {
					if e := vals[merged[a]]; vals[j] > e && !Within(e, vals[j], lambda) {
						ok = false
						break
					}
				}
				if !ok || !isValid(merged, j) {
					continue
				}
				card := prev.states[pi].card + int32(len(newPosts))
				k := key(merged)
				if si, seen := cur.index[k]; seen {
					if card < cur.states[si].card {
						cur.states[si].card = card
						cur.states[si].parent = int32(pi)
					}
				} else {
					if len(cur.states) >= opt.MaxStates {
						return nil, fmt.Errorf("%w: more than %d states at post %d", ErrOPTTooLarge, opt.MaxStates, j)
					}
					cur.index[k] = int32(len(cur.states))
					cur.states = append(cur.states, optState{
						pattern: append([]int32(nil), merged...),
						card:    card,
						parent:  int32(pi),
					})
				}
			}
			// Next candidate combination (mixed-radix increment).
			a := 0
			for a < L {
				choice[a]++
				if choice[a] < len(cands[a]) {
					break
				}
				choice[a] = 0
				a++
			}
			if a == L {
				break
			}
		}
		if len(cur.states) == 0 {
			// Unreachable for λ ≥ 0: P_j can always cover itself.
			return nil, fmt.Errorf("core: OPT found no feasible pattern at post %d", j)
		}
		prev = cur
		layers = append(layers, cur)
		if opt.Trace != nil {
			opt.Trace.StatesPerPost = append(opt.Trace.StatesPerPost, len(cur.states))
			if len(cur.states) > opt.Trace.MaxStates {
				opt.Trace.MaxStates = len(cur.states)
			}
			opt.Trace.Work = work
		}
	}

	// Extract the optimum (minus the sentinel) and optionally backtrack.
	bestIdx, bestCard := -1, int32(0)
	for i := range prev.states {
		if bestIdx == -1 || prev.states[i].card < bestCard {
			bestIdx, bestCard = i, prev.states[i].card
		}
	}
	cover := &Cover{Algorithm: "OPT", Optimal: true}
	chosen := make(map[int32]bool)
	si := int32(bestIdx)
	for j := n; j >= 1; j-- {
		st := layers[j].states[si]
		for a := 0; a < L; a++ {
			if e := st.pattern[a]; e > int32(f[j-1]) {
				chosen[e] = true
			}
		}
		si = st.parent
	}
	sel := make([]int, 0, len(chosen))
	for e := range chosen {
		sel = append(sel, int(e-1))
	}
	cover.Selected = normalizeSelected(sel)
	cover.Elapsed = time.Since(start)
	if got := int32(len(cover.Selected)) + 1; got != bestCard {
		return nil, fmt.Errorf("core: OPT backtrack mismatch: cardinality %d, reconstructed %d posts", bestCard-1, len(cover.Selected))
	}
	return cover, nil
}
