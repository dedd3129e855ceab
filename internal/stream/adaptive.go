package stream

import (
	"fmt"
	"math"
	"sort"

	"mqdp/internal/core"
)

// AdaptiveScan extends StreamScan with §6's proportional diversity: each
// arriving post gets a per-label coverage radius from Equation 2, computed
// over the *trailing* window (a streaming processor cannot see the future
// half of the paper's centered window):
//
//	r_a(P) = λ0 · exp(1 − density_a(t−2λ0, t] / density0)
//
// where density0 is the running average per-label arrival density. Coverage
// is directional — the emitted post's radius decides — so a decision round
// covers a label's backlog right-to-left: select the newest uncovered post,
// discard everything its radius reaches, repeat. Rounds fire when the oldest
// uncovered post's delay budget τ expires, keeping every emission within τ.
type AdaptiveScan struct {
	lambda0 float64
	tau     float64
	clk     clock
	labels  []adaptiveLabel
	// density bookkeeping
	totalArrivals int64   // label-arrival incidences seen
	firstTime     float64 // stream start
	activeLabels  map[core.Label]struct{}
	// radii of emitted posts, for verification and clients.
	emitted map[int64]map[core.Label]float64
}

// adaptiveLabel is per-label state.
type adaptiveLabel struct {
	// recent arrival times within the trailing window (ascending).
	recent []float64
	// pending uncovered posts (ascending time) with their radii.
	pending []adaptivePost
	// latest emitted post covering this label, if any.
	lcSet    bool
	lcTime   float64
	lcRadius float64
}

// adaptivePost is a buffered post with its arrival-time radius for one label.
type adaptivePost struct {
	post   core.Post
	radius float64
}

// NewAdaptiveScan builds the processor. lambda0 is Equation 2's base
// threshold; tau the delay budget.
func NewAdaptiveScan(numLabels int, lambda0, tau float64) (*AdaptiveScan, error) {
	if !(lambda0 > 0) || tau < 0 {
		return nil, fmt.Errorf("stream: need lambda0 > 0 and tau ≥ 0, got %v, %v", lambda0, tau)
	}
	return &AdaptiveScan{
		lambda0:      lambda0,
		tau:          tau,
		labels:       make([]adaptiveLabel, numLabels),
		activeLabels: make(map[core.Label]struct{}),
		emitted:      make(map[int64]map[core.Label]float64),
	}, nil
}

// Name implements Processor.
func (s *AdaptiveScan) Name() string { return "AdaptiveStreamScan" }

// Process implements Processor.
func (s *AdaptiveScan) Process(p core.Post) ([]Emission, error) {
	if err := s.clk.advance(p.Value); err != nil {
		return nil, err
	}
	if !s.clkStartedBefore() {
		s.firstTime = p.Value
	}
	out := s.fire(p.Value)
	for _, a := range p.Labels {
		st := &s.labels[a]
		s.activeLabels[a] = struct{}{}
		s.totalArrivals++
		st.recent = append(st.recent, p.Value)
		st.pruneRecent(p.Value, s.lambda0)
		r := s.radius(st, p.Value)
		if st.lcSet && core.Within(st.lcTime, p.Value, st.lcRadius) {
			continue // already covered for this label
		}
		st.pending = append(st.pending, adaptivePost{post: p, radius: r})
	}
	return out, nil
}

// clkStartedBefore reports whether any post preceded the current one.
func (s *AdaptiveScan) clkStartedBefore() bool { return s.totalArrivals > 0 }

// pruneRecent drops arrivals older than the trailing window 2λ0.
func (st *adaptiveLabel) pruneRecent(now, lambda0 float64) {
	cutoff := now - 2*lambda0
	k := sort.SearchFloat64s(st.recent, cutoff)
	if k > 0 {
		st.recent = append(st.recent[:0], st.recent[k:]...)
	}
}

// radius evaluates Equation 2 over the trailing window.
func (s *AdaptiveScan) radius(st *adaptiveLabel, now float64) float64 {
	density := float64(len(st.recent)) / (2 * s.lambda0)
	elapsed := now - s.firstTime
	if elapsed <= 0 {
		elapsed = 2 * s.lambda0
	}
	density0 := float64(s.totalArrivals) / float64(len(s.activeLabels)) / elapsed
	if density0 <= 0 {
		return s.lambda0 * math.E
	}
	return s.lambda0 * math.Exp(1-density/density0)
}

// Flush implements Processor.
func (s *AdaptiveScan) Flush() []Emission {
	return s.fireDue(math.Inf(1), math.Inf(1))
}

// fire emits for every label whose oldest pending post's delay budget has
// elapsed at event time t.
func (s *AdaptiveScan) fire(t float64) []Emission {
	return s.fireDue(t, t)
}

// fireDue runs decision rounds for labels whose deadline ≤ limit, in
// deadline order; every decision happens at its own deadline.
func (s *AdaptiveScan) fireDue(_, limit float64) []Emission {
	var out []Emission
	for {
		best := -1
		bestD := 0.0
		for a := range s.labels {
			st := &s.labels[a]
			if len(st.pending) == 0 {
				continue
			}
			if d := st.pending[0].post.Value + s.tau; d <= limit && (best == -1 || d < bestD) {
				best, bestD = a, d
			}
		}
		if best == -1 {
			break
		}
		out = append(out, s.decide(core.Label(best), bestD)...)
	}
	sortEmissions(out)
	return out
}

// decide covers label a's entire backlog right-to-left at decision time d:
// pick the newest uncovered pending post, drop everything within its radius
// (looking backward), repeat until the backlog is empty.
func (s *AdaptiveScan) decide(a core.Label, d float64) []Emission {
	st := &s.labels[a]
	var out []Emission
	for len(st.pending) > 0 {
		pick := st.pending[len(st.pending)-1]
		// Record the emission unless this post was already emitted via
		// another label; its radii map gains this label either way.
		radii, dup := s.emitted[pick.post.ID]
		if !dup {
			radii = make(map[core.Label]float64, len(pick.post.Labels))
			s.emitted[pick.post.ID] = radii
			out = append(out, Emission{Post: pick.post, EmitAt: d})
		}
		radii[a] = pick.radius
		if !st.lcSet || pick.post.Value > st.lcTime {
			st.lcSet = true
			st.lcTime = pick.post.Value
			st.lcRadius = pick.radius
		}
		// Drop the suffix the pick covers.
		keep := len(st.pending) - 1
		for keep > 0 && core.Within(pick.post.Value, st.pending[keep-1].post.Value, pick.radius) {
			keep--
		}
		st.pending = st.pending[:keep]
	}
	return out
}

// EmittedRadius reports the Equation 2 radius an emitted post carried for a
// label, for verification and UI display.
func (s *AdaptiveScan) EmittedRadius(postID int64, a core.Label) (float64, bool) {
	radii, ok := s.emitted[postID]
	if !ok {
		return 0, false
	}
	r, ok := radii[a]
	return r, ok
}
