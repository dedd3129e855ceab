package stream

import (
	"fmt"

	"mqdp/internal/core"
)

// labelState is the per-label bookkeeping of StreamScan (§5.1): the latest
// output relevant post P_lc, and the oldest/latest uncovered posts P_ou and
// P_lu. While a label has uncovered posts, the latest of them is scheduled
// for output at deadline min(time(P_lu)+τ, time(P_ou)+λ).
type labelState struct {
	hasLC   bool
	lcValue float64
	pending bool
	ou      float64   // value of the oldest uncovered post
	lu      core.Post // latest uncovered post (the one to emit)
}

// deadline is a decision time, not a coverage test: any t with
// !core.Within(ou, t, λ) exceeds ou+λ exactly, so fl(ou+λ) ≤ t and the
// backlog fires before such an arrival could become lu.
func (s *labelState) deadline(lambda, tau float64) float64 {
	d := s.lu.Value + tau
	if alt := s.ou + lambda; alt < d {
		d = alt
	}
	return d
}

// Scan is the streaming adaptation of Algorithm Scan (StreamScan and, with
// Plus, StreamScan+). For τ ≥ λ it emits exactly what the offline Scan
// would, giving the same approximation factor s; smaller τ trades a shorter
// reporting delay for more emitted posts.
type Scan struct {
	name   string
	lambda float64
	tau    float64
	plus   bool
	labels []labelState
	clk    clock
	// emittedAt remembers recently emitted post IDs so a post pending for
	// several labels is reported once; entries older than now−(λ+τ) can
	// no longer be re-emitted and are pruned.
	emittedAt map[int64]float64
}

// NewScan returns a StreamScan processor (StreamScan+ when plus is set) for
// numLabels labels. λ and τ must be nonnegative.
func NewScan(numLabels int, lambda, tau float64, plus bool) (*Scan, error) {
	if lambda < 0 || tau < 0 {
		return nil, fmt.Errorf("stream: negative lambda %v or tau %v", lambda, tau)
	}
	name := "StreamScan"
	if plus {
		name = "StreamScan+"
	}
	return &Scan{
		name:      name,
		lambda:    lambda,
		tau:       tau,
		plus:      plus,
		labels:    make([]labelState, numLabels),
		emittedAt: make(map[int64]float64),
	}, nil
}

// Name implements Processor.
func (s *Scan) Name() string { return s.name }

// Process implements Processor.
func (s *Scan) Process(p core.Post) ([]Emission, error) {
	if err := s.clk.advance(p.Value); err != nil {
		return nil, err
	}
	out := s.fire(p.Value)
	for _, a := range p.Labels {
		st := &s.labels[a]
		if st.hasLC && core.Within(st.lcValue, p.Value, s.lambda) {
			continue // already covered for this label
		}
		if !st.pending {
			st.pending = true
			st.ou = p.Value
		}
		st.lu = p
	}
	s.prune(p.Value)
	return out, nil
}

// Flush implements Processor.
func (s *Scan) Flush() []Emission {
	out := s.fireAll(func(float64) bool { return true })
	sortEmissions(out)
	return out
}

// fire emits every pending label whose deadline has passed by event time t,
// in deadline order (so StreamScan+ cross-label updates see earlier
// decisions first).
func (s *Scan) fire(t float64) []Emission {
	out := s.fireAll(func(d float64) bool { return d <= t })
	sortEmissions(out)
	return out
}

// fireAll repeatedly emits the pending label with the earliest due deadline.
func (s *Scan) fireAll(due func(deadline float64) bool) []Emission {
	var out []Emission
	for {
		best := -1
		bestD := 0.0
		for a := range s.labels {
			st := &s.labels[a]
			if !st.pending {
				continue
			}
			if d := st.deadline(s.lambda, s.tau); due(d) && (best == -1 || d < bestD) {
				best, bestD = a, d
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, s.emit(core.Label(best), bestD)...)
	}
}

// emit outputs label a's latest uncovered post at decision time d, updating
// P_lc and clearing the pending range. With Plus, the emitted post also
// serves every other label it carries, clearing their pending ranges when it
// covers them entirely.
func (s *Scan) emit(a core.Label, d float64) []Emission {
	st := &s.labels[a]
	p := st.lu
	st.hasLC = true
	st.lcValue = p.Value
	st.pending = false
	var out []Emission
	if _, dup := s.emittedAt[p.ID]; !dup {
		s.emittedAt[p.ID] = p.Value
		out = append(out, Emission{Post: p, EmitAt: d})
	}
	if !s.plus {
		return out
	}
	for _, b := range p.Labels {
		if b == a {
			continue
		}
		bst := &s.labels[b]
		if bst.pending {
			// p clears b's backlog only if it covers the whole
			// uncovered range [ou, lu].
			if core.Within(p.Value, bst.ou, s.lambda) && core.Within(p.Value, bst.lu.Value, s.lambda) {
				bst.pending = false
				if !bst.hasLC || p.Value > bst.lcValue {
					bst.hasLC = true
					bst.lcValue = p.Value
				}
			}
		} else if !bst.hasLC || p.Value > bst.lcValue {
			bst.hasLC = true
			bst.lcValue = p.Value
		}
	}
	return out
}

// prune drops emitted-ID dedup entries too old to be re-selected.
func (s *Scan) prune(now float64) {
	if len(s.emittedAt) < 1024 {
		return
	}
	cutoff := now - s.lambda - s.tau - 1
	for id, v := range s.emittedAt {
		if v < cutoff {
			delete(s.emittedAt, id)
		}
	}
}
