package stream

import (
	"fmt"
	"math"

	"mqdp/internal/core"
	"mqdp/internal/fenwick"
)

// pendingPost is a buffered post whose labels are not all covered yet.
type pendingPost struct {
	post      core.Post
	uncovered []core.Label // labels still awaiting coverage
}

// Greedy is the streaming set-cover processor of §5.2 (StreamGreedySC and,
// with Plus, StreamGreedySC+). Let P' be the oldest post with an uncovered
// label. At event time time(P')+τ the processor takes the window Z of
// buffered posts published up to that time and runs the greedy set-cover
// rule over Z's uncovered (post, label) pairs, emitting selections until
// either all of Z is covered (StreamGreedySC) or P' itself is covered
// (StreamGreedySC+), then repeats with the next oldest uncovered post.
//
// Each decision round counts window gains with per-label Fenwick trees, so a
// round costs O(selections · |Z| · s · log |Z|) instead of the naive
// O(selections · |Z|²·s); the selected posts are identical.
type Greedy struct {
	name   string
	lambda float64
	tau    float64
	plus   bool
	clk    clock
	// pending holds buffered posts in arrival order; head is the index of
	// the first live entry (the slice is compacted when it grows).
	pending []pendingPost
	head    int
	// latest[a] is the largest emitted value carrying label a (set when
	// hasLatest[a]). No arrival precedes an emission, so it is the one
	// emission that can cover an arrival on a.
	latest    []float64
	hasLatest []bool
}

// NewGreedy returns a StreamGreedySC processor (StreamGreedySC+ when plus is
// set) for numLabels labels.
func NewGreedy(numLabels int, lambda, tau float64, plus bool) (*Greedy, error) {
	if lambda < 0 || tau < 0 {
		return nil, fmt.Errorf("stream: negative lambda %v or tau %v", lambda, tau)
	}
	name := "StreamGreedySC"
	if plus {
		name = "StreamGreedySC+"
	}
	return &Greedy{
		name:      name,
		lambda:    lambda,
		tau:       tau,
		plus:      plus,
		latest:    make([]float64, numLabels),
		hasLatest: make([]bool, numLabels),
	}, nil
}

// Name implements Processor.
func (s *Greedy) Name() string { return s.name }

// Process implements Processor.
func (s *Greedy) Process(p core.Post) ([]Emission, error) {
	if err := s.clk.advance(p.Value); err != nil {
		return nil, err
	}
	out := s.runRounds(p.Value)
	if unc := s.uncoveredLabels(p); len(unc) > 0 {
		s.pending = append(s.pending, pendingPost{post: p, uncovered: unc})
		// A zero τ decides the arrival at its own timestamp.
		out = append(out, s.runRounds(p.Value)...)
	}
	return out, nil
}

// Flush implements Processor.
func (s *Greedy) Flush() []Emission {
	return s.runRounds(math.Inf(1))
}

// uncoveredLabels returns the labels of p not covered by prior emissions.
func (s *Greedy) uncoveredLabels(p core.Post) []core.Label {
	var unc []core.Label
	for _, a := range p.Labels {
		if !s.hasLatest[a] || !core.Within(s.latest[a], p.Value, s.lambda) {
			unc = append(unc, a)
		}
	}
	return unc
}

// runRounds executes decision rounds while the oldest uncovered post's
// deadline has passed by event time t.
func (s *Greedy) runRounds(t float64) []Emission {
	var out []Emission
	for s.head < len(s.pending) {
		oldest := s.pending[s.head].post.Value
		deadline := oldest + s.tau
		if deadline > t {
			break
		}
		out = append(out, s.decide(deadline)...)
		s.compact()
	}
	return out
}

// labelWindow tracks one label's uncovered pairs inside a decision window.
type labelWindow struct {
	vals []float64 // pair values, ascending (pending is time-ordered)
	pidx []int     // owning pending index per pair
	live []bool
	bit  *fenwick.Tree
}

// covered returns the position range of the pairs a post at value v covers.
func (lw *labelWindow) covered(v, lambda float64) (from, to int) {
	return core.WithinRange(len(lw.vals), func(k int) float64 { return lw.vals[k] }, v, lambda)
}

// decide runs one greedy round at decision time d over the window Z of
// pending posts published at or before d.
func (s *Greedy) decide(d float64) []Emission {
	// Z is the prefix of pending posts with value ≤ d.
	zEnd := s.head
	for zEnd < len(s.pending) && s.pending[zEnd].post.Value <= d {
		zEnd++
	}
	// Per-label uncovered-pair windows.
	wins := make(map[core.Label]*labelWindow)
	roundUncovered := 0
	for qi := s.head; qi < zEnd; qi++ {
		q := &s.pending[qi]
		for _, a := range q.uncovered {
			lw := wins[a]
			if lw == nil {
				lw = &labelWindow{}
				wins[a] = lw
			}
			lw.vals = append(lw.vals, q.post.Value)
			lw.pidx = append(lw.pidx, qi)
			lw.live = append(lw.live, true)
			roundUncovered++
		}
	}
	for _, lw := range wins {
		lw.bit = fenwick.New(len(lw.vals))
		for k := range lw.vals {
			lw.bit.Add(k, 1)
		}
	}
	gain := func(zi int) int {
		z := s.pending[zi].post
		total := 0
		for _, a := range z.Labels {
			lw := wins[a]
			if lw == nil {
				continue
			}
			total += lw.bit.RangeSum(lw.covered(z.Value, s.lambda))
		}
		return total
	}
	var out []Emission
	for {
		if s.plus {
			// Stop as soon as the round's trigger post is covered.
			if s.head >= len(s.pending) || len(s.pending[s.head].uncovered) == 0 {
				break
			}
		} else if roundUncovered == 0 {
			break
		}
		best, bestGain := -1, 0
		for zi := s.head; zi < zEnd; zi++ {
			if g := gain(zi); g > bestGain {
				best, bestGain = zi, g
			}
		}
		if best == -1 {
			break // unreachable: uncovered posts cover themselves
		}
		z := s.pending[best].post
		out = append(out, Emission{Post: z, EmitAt: d})
		for _, a := range z.Labels {
			if !s.hasLatest[a] || z.Value > s.latest[a] {
				s.latest[a], s.hasLatest[a] = z.Value, true
			}
		}
		roundUncovered -= s.coverWindowPairs(wins, z)
		s.coverTailPairs(zEnd, z)
	}
	return out
}

// coverWindowPairs marks every in-window pair z covers, returning the count.
func (s *Greedy) coverWindowPairs(wins map[core.Label]*labelWindow, z core.Post) int {
	covered := 0
	for _, a := range z.Labels {
		lw := wins[a]
		if lw == nil {
			continue
		}
		from, to := lw.covered(z.Value, s.lambda)
		for k := from; k < to; k++ {
			if !lw.live[k] {
				continue
			}
			lw.live[k] = false
			lw.bit.Add(k, -1)
			dropLabel(&s.pending[lw.pidx[k]], a)
			covered++
		}
	}
	return covered
}

// coverTailPairs clears z's labels from pending posts beyond the window
// (arrived after the decision deadline but within λ of z).
func (s *Greedy) coverTailPairs(zEnd int, z core.Post) {
	for qi := zEnd; qi < len(s.pending); qi++ {
		q := &s.pending[qi]
		if !core.Within(z.Value, q.post.Value, s.lambda) {
			break // pending is time-ordered and q lies after z
		}
		if len(q.uncovered) == 0 {
			continue
		}
		for _, a := range z.Labels {
			dropLabel(q, a)
		}
	}
}

// dropLabel removes label a from q's uncovered set if present.
func dropLabel(q *pendingPost, a core.Label) {
	for i, l := range q.uncovered {
		if l == a {
			q.uncovered = append(q.uncovered[:i], q.uncovered[i+1:]...)
			return
		}
	}
}

// compact drops fully covered posts from the head of the buffer and
// periodically rebuilds the slice.
func (s *Greedy) compact() {
	for s.head < len(s.pending) && len(s.pending[s.head].uncovered) == 0 {
		s.head++
	}
	if s.head > 1024 && s.head*2 > len(s.pending) {
		s.pending = append([]pendingPost(nil), s.pending[s.head:]...)
		s.head = 0
	}
}
