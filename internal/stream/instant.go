package stream

import (
	"fmt"

	"mqdp/internal/core"
)

// Instant is the τ = 0 processor of §5.1/§5.2: every arrival is decided
// immediately. It keeps the most recently emitted post per label; an arrival
// uncovered on any of its labels is emitted and refreshes the cache entry of
// every label it carries. The approximation factor is 2s — per label, any
// two consecutive emissions are more than λ apart, so an optimal solution
// needs at least half as many posts.
type Instant struct {
	lambda float64
	cache  []struct {
		set   bool
		value float64
	}
	clk clock
}

// NewInstant returns an instant-output processor for numLabels labels.
func NewInstant(numLabels int, lambda float64) (*Instant, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("stream: negative lambda %v", lambda)
	}
	return &Instant{
		lambda: lambda,
		cache: make([]struct {
			set   bool
			value float64
		}, numLabels),
	}, nil
}

// Name implements Processor.
func (s *Instant) Name() string { return "Instant" }

// Process implements Processor.
func (s *Instant) Process(p core.Post) ([]Emission, error) {
	if err := s.clk.advance(p.Value); err != nil {
		return nil, err
	}
	covered := true
	for _, a := range p.Labels {
		c := s.cache[a]
		if !c.set || !core.Within(c.value, p.Value, s.lambda) {
			covered = false
			break
		}
	}
	if covered || len(p.Labels) == 0 {
		return nil, nil
	}
	for _, a := range p.Labels {
		s.cache[a].set = true
		s.cache[a].value = p.Value
	}
	return []Emission{{Post: p, EmitAt: p.Value}}, nil
}

// Flush implements Processor. Instant has no outstanding decisions.
func (s *Instant) Flush() []Emission { return nil }
