// Package mqdp is the public API of this reproduction of "Multi-Query
// Diversification in Microblogging Posts" (EDBT 2014). Given a collection or
// stream of posts — each carrying a value on an ordered diversity dimension
// (time, sentiment, ...) and the set of user queries (labels) it matches —
// it computes a small subset of posts that λ-covers everything: every post
// has, for each of its labels, a selected post with that label within
// distance λ on the dimension.
//
// Offline solving (Problem 1, MQDP):
//
//	inst, _ := mqdp.NewInstance(posts, dict.Len())
//	cover, _ := mqdp.Solve(inst, mqdp.Options{Lambda: 60, Algorithm: mqdp.GreedySC})
//
// Streaming (Problem 2, StreamMQDP), with every decision within delay τ:
//
//	p, _ := mqdp.NewStream(mqdp.StreamScanPlus, dict.Len(), 60, 30)
//	emissions, _ := mqdp.RunStream(posts, p)
//
// The heavy lifting lives in internal/core (solvers), internal/stream
// (streaming processors) and the substrate packages (inverted index, topic
// matching, LDA, SimHash, sentiment, synthetic data); this package provides
// the stable surface.
package mqdp

import (
	"errors"
	"fmt"

	"mqdp/internal/core"
	"mqdp/internal/stream"
)

// Core model types, re-exported.
type (
	// Post is one item to diversify: a dimension value plus label set.
	Post = core.Post
	// Label is an interned query identifier.
	Label = core.Label
	// Dictionary interns query names to labels.
	Dictionary = core.Dictionary
	// Instance is a prepared, immutable MQDP input.
	Instance = core.Instance
	// Cover is a solver result.
	Cover = core.Cover
	// LambdaModel supplies per-post coverage radii.
	LambdaModel = core.LambdaModel
	// OPTOptions bound the exact solver.
	OPTOptions = core.OPTOptions
	// Emission is one streaming output decision.
	Emission = stream.Emission
	// Processor is a streaming diversifier.
	Processor = stream.Processor
)

// NewInstance validates and prepares posts; numLabels must exceed every
// label id (use dict.Len()).
func NewInstance(posts []Post, numLabels int) (*Instance, error) {
	return core.NewInstance(posts, numLabels)
}

// Algorithm selects an offline solver.
type Algorithm int

// Offline solvers (§4 of the paper).
const (
	// Scan: per-label scans, approximation factor s, O(s|P|) time.
	Scan Algorithm = iota
	// ScanPlus: Scan with cross-label reuse of selections.
	ScanPlus
	// GreedySC: greedy set cover, approximation factor H(d) ≤ 1 + ln d,
	// d the most (post, label) pairs one post covers.
	GreedySC
	// OPT: exact dynamic programming; small instances only.
	OPT
	// Exhaustive: exact branch-and-bound; tiny instances only.
	Exhaustive
	// Thinning: the naive grid-bucketing baseline (one post per label per
	// aligned λ-width bucket) — always valid, never clever.
	Thinning
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case Scan:
		return "Scan"
	case ScanPlus:
		return "Scan+"
	case GreedySC:
		return "GreedySC"
	case OPT:
		return "OPT"
	case Exhaustive:
		return "Exhaustive"
	case Thinning:
		return "BucketThinning"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configure Solve. Lambda is required (> 0, or ≥ 0 for exact
// same-value covering).
type Options struct {
	// Lambda is the coverage threshold on the diversity dimension — or,
	// when Proportional is set, the base threshold λ0 of Equation 2.
	Lambda float64
	// Algorithm picks the solver; default Scan.
	Algorithm Algorithm
	// Proportional enables §6's density-adaptive per-post thresholds.
	// Not supported by OPT (the end-pattern state breaks under
	// directional coverage).
	Proportional bool
	// ScanOrder sets Scan+'s label processing order.
	ScanOrder core.ScanOrder
	// OPT bounds the exact solver's state space.
	OPT *OPTOptions
	// SkipVerify disables the built-in independent feasibility check.
	SkipVerify bool
	// Parallelism is not read: each solver picks its own execution from
	// the instance it is given.
	//
	// Deprecated: ignored. The field goes once bench/reference.go stops
	// setting it (ROADMAP item 11).
	Parallelism int
}

// ErrUnsupported reports an invalid solver/option combination.
var ErrUnsupported = errors.New("mqdp: unsupported option combination")

// Solve runs the selected algorithm and (unless SkipVerify) re-checks the
// returned cover independently before handing it back.
func Solve(inst *Instance, opts Options) (*Cover, error) {
	if opts.Lambda < 0 {
		return nil, fmt.Errorf("mqdp: negative lambda %v", opts.Lambda)
	}
	var model LambdaModel = core.FixedLambda(opts.Lambda)
	if opts.Proportional {
		if opts.Algorithm == OPT {
			return nil, fmt.Errorf("%w: OPT requires a fixed lambda", ErrUnsupported)
		}
		pl, err := core.NewProportionalLambda(inst, opts.Lambda)
		if err != nil {
			return nil, err
		}
		model = pl
	}
	var (
		cover *Cover
		err   error
	)
	switch opts.Algorithm {
	case Scan:
		cover = inst.Scan(model)
	case ScanPlus:
		cover = inst.ScanPlus(model, opts.ScanOrder)
	case GreedySC:
		cover = inst.GreedySC(model)
	case OPT:
		cover, err = inst.OPT(opts.Lambda, opts.OPT)
	case Exhaustive:
		cover, err = inst.Exhaustive(model)
	case Thinning:
		if opts.Proportional {
			return nil, fmt.Errorf("%w: thinning requires a fixed lambda", ErrUnsupported)
		}
		cover = inst.BucketThinning(opts.Lambda)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrUnsupported, opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	if !opts.SkipVerify {
		if verr := inst.VerifyCover(model, cover.Selected); verr != nil {
			return nil, fmt.Errorf("mqdp: %s returned an infeasible cover: %w", opts.Algorithm, verr)
		}
	}
	return cover, nil
}

// StreamAlgorithm selects a streaming processor.
type StreamAlgorithm int

// Streaming processors (§5 of the paper).
const (
	// StreamScan: per-label deadline scans; factor s when τ ≥ λ.
	StreamScan StreamAlgorithm = iota
	// StreamScanPlus: StreamScan with cross-label reuse.
	StreamScanPlus
	// StreamGreedy: windowed greedy set cover per decision round.
	StreamGreedy
	// StreamGreedyPlus: StreamGreedy stopping rounds at the trigger post.
	StreamGreedyPlus
	// Instant: τ = 0 decisions; factor 2s.
	Instant
)

// String names the streaming algorithm as in the paper.
func (a StreamAlgorithm) String() string {
	switch a {
	case StreamScan:
		return "StreamScan"
	case StreamScanPlus:
		return "StreamScan+"
	case StreamGreedy:
		return "StreamGreedySC"
	case StreamGreedyPlus:
		return "StreamGreedySC+"
	case Instant:
		return "Instant"
	}
	return fmt.Sprintf("StreamAlgorithm(%d)", int(a))
}

// NewStream builds a streaming diversifier over numLabels labels with
// threshold lambda and decision delay tau (ignored by Instant).
func NewStream(algo StreamAlgorithm, numLabels int, lambda, tau float64) (Processor, error) {
	switch algo {
	case StreamScan:
		return stream.NewScan(numLabels, lambda, tau, false)
	case StreamScanPlus:
		return stream.NewScan(numLabels, lambda, tau, true)
	case StreamGreedy:
		return stream.NewGreedy(numLabels, lambda, tau, false)
	case StreamGreedyPlus:
		return stream.NewGreedy(numLabels, lambda, tau, true)
	case Instant:
		return stream.NewInstant(numLabels, lambda)
	}
	return nil, fmt.Errorf("%w: unknown streaming algorithm %d", ErrUnsupported, algo)
}

// RunStream replays posts (ascending Value order) through p and returns all
// emissions in decision order.
func RunStream(posts []Post, p Processor) ([]Emission, error) {
	return stream.Run(posts, p)
}

// Verify independently checks that the selected indexes λ-cover inst.
func Verify(inst *Instance, lambda float64, selected []int) error {
	return inst.VerifyCover(core.FixedLambda(lambda), selected)
}

// StreamSummary aggregates an emission batch: output size plus mean, p95 and
// max decision delay — the two axes of the paper's §5 size/delay tradeoff.
type StreamSummary = stream.Summary

// SummarizeStream computes a StreamSummary over emissions.
func SummarizeStream(es []Emission) StreamSummary { return stream.Summarize(es) }
