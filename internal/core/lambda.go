package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// LambdaModel supplies the coverage radius λ of a post for one of its labels.
// With a fixed model, coverage is symmetric: Pi covers a∈Pj iff
// |v_i − v_j| ≤ λ. With a per-post model (Section 6 of the paper), coverage
// becomes directional: Pi λ-covers a∈Pj iff |v_i − v_j| ≤ Lambda(i, a),
// i.e. the radius of the *covering* post decides.
type LambdaModel interface {
	// Lambda returns the coverage radius of the post at index i (in
	// instance dimension order) for label a. Only called when post i
	// actually carries label a.
	Lambda(i int, a Label) float64
	// Max returns an upper bound on Lambda over all posts and labels;
	// used to bound candidate windows during scans.
	Max() float64
}

// FixedLambda is the classic single-threshold model of Problems 1 and 2.
type FixedLambda float64

// Lambda implements LambdaModel.
func (f FixedLambda) Lambda(int, Label) float64 { return float64(f) }

// Max implements LambdaModel.
func (f FixedLambda) Max() float64 { return float64(f) }

// Within is the paper's λ-coverage test (§2): a post at value v with radius
// r covers a post at value w iff |v − w| ≤ r (symmetric, as fl(v−w) =
// −fl(w−v)). Solvers, streaming processors and verifiers decide coverage
// only with Within or WithinRange, never against a precomputed v ± r, whose
// rounding can disagree with it for a pair exactly r apart.
func Within(v, w, r float64) bool { return math.Abs(v-w) <= r }

// WithinRange returns the positions [from, to) of the k in [0, n) with
// Within(v, at(k), r), for nondecreasing at. Rounded subtraction is
// monotone, so |v − w| only shrinks as w nears v from either side: the
// covered positions are one interval, and binary search over Within finds
// its ends exactly.
func WithinRange(n int, at func(int) float64, v, r float64) (from, to int) {
	from = sort.Search(n, func(k int) bool { w := at(k); return w >= v || Within(v, w, r) })
	to = sort.Search(n, func(k int) bool { w := at(k); return w >= v && !Within(v, w, r) })
	return from, to
}

// Covers reports whether the post at index i λ-covers label a of the post at
// index j under model m. Both posts must carry a (not rechecked here).
func (in *Instance) Covers(m LambdaModel, i, j int, a Label) bool {
	return Within(in.posts[i].Value, in.posts[j].Value, m.Lambda(i, a))
}

// ProportionalLambda implements Equation 2 of the paper: a per-(post, label)
// threshold that shrinks in dense regions and grows in sparse ones,
//
//	λ_a(P_i) = λ0 · exp(1 − density_a(v_i−λ0, v_i+λ0) / density0)
//
// where density_a is the number of label-a posts per unit of the diversity
// dimension inside the window, and density0 is the average per-label density
// over the instance's full value range. The exponential damping keeps rare
// perspectives represented (radii never exceed e·λ0).
type ProportionalLambda struct {
	inst    *Instance
	lambda0 float64
	// radii[i] holds one radius per label of post i, aligned with
	// inst.Post(i).Labels.
	radii [][]float64
	max   float64
}

// ErrBadLambda reports invalid λ parameters.
var ErrBadLambda = errors.New("core: invalid lambda")

// NewProportionalLambda precomputes Equation 2 radii for every (post, label)
// incidence of inst. lambda0 must be positive.
func NewProportionalLambda(inst *Instance, lambda0 float64) (*ProportionalLambda, error) {
	if !(lambda0 > 0) || math.IsInf(lambda0, 0) {
		return nil, fmt.Errorf("%w: lambda0 = %v, need finite > 0", ErrBadLambda, lambda0)
	}
	pl := &ProportionalLambda{inst: inst, lambda0: lambda0}
	lo, hi := inst.valueRange()
	span := hi - lo
	if span <= 0 {
		span = 2 * lambda0 // degenerate: all posts at one value
	}
	// density0: average, over labels with any posts, of posts per unit value.
	var sum float64
	active := 0
	for a := 0; a < inst.numLabels; a++ {
		if n := len(inst.byLabel[a]); n > 0 {
			sum += float64(n) / span
			active++
		}
	}
	density0 := 0.0
	if active > 0 {
		density0 = sum / float64(active)
	}
	pl.radii = make([][]float64, inst.Len())
	for i := 0; i < inst.Len(); i++ {
		p := inst.Post(i)
		if len(p.Labels) == 0 {
			continue
		}
		radii := make([]float64, len(p.Labels))
		for k, a := range p.Labels {
			from, to := inst.windowInLabel(a, p.Value, lambda0)
			density := float64(to-from) / (2 * lambda0)
			r := lambda0 * math.E // sparse-limit radius
			if density0 > 0 {
				r = lambda0 * math.Exp(1-density/density0)
			}
			radii[k] = r
			if r > pl.max {
				pl.max = r
			}
		}
		pl.radii[i] = radii
	}
	return pl, nil
}

// Lambda implements LambdaModel. It panics if post i does not carry label a,
// which would indicate a solver bug.
func (pl *ProportionalLambda) Lambda(i int, a Label) float64 {
	labels := pl.inst.Post(i).Labels
	for k, l := range labels {
		if l == a {
			return pl.radii[i][k]
		}
	}
	panic(fmt.Sprintf("core: post %d does not carry label %d", i, a))
}

// Max implements LambdaModel.
func (pl *ProportionalLambda) Max() float64 { return pl.max }

// Lambda0 returns the base threshold the model was built with.
func (pl *ProportionalLambda) Lambda0() float64 { return pl.lambda0 }
