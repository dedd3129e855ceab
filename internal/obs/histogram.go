package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add into the bucket, one into the total, and CAS loops for the
// running sum and exact maximum. Quantiles are estimated from the bucket
// counts by linear interpolation (see Quantile); count, sum, mean and max
// are exact.
//
// Concurrent reads during writes see a near-consistent snapshot — the usual
// metrics contract — never a torn value.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits, valid only when total > 0
	ex     atomic.Pointer[hExemplar]
}

// hExemplar pins the trace that produced the largest traced observation, so
// the exposition can link a histogram's tail back to a concrete trace.
type hExemplar struct {
	val   float64
	trace TraceID
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds (an implicit +Inf bucket is appended). With no bounds the histogram
// still tracks count/sum/max exactly. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records v. It no-ops on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Bucket i holds observations with v ≤ bounds[i] (Prometheus `le`
	// semantics); SearchFloat64s finds the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.total.Add(1)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// ObserveTraced records v and, when trace is non-zero, offers it as an
// exemplar (kept if v is the largest traced observation so far).
func (h *Histogram) ObserveTraced(v float64, trace TraceID) {
	if h == nil {
		return
	}
	h.Observe(v)
	h.attachExemplar(v, trace)
}

// attachExemplar offers (v, trace) as the histogram's exemplar without
// recording an observation. The exemplar with the largest value wins, so it
// points at the trace behind the histogram's worst case. Zero traces no-op.
func (h *Histogram) attachExemplar(v float64, trace TraceID) {
	if h == nil || trace.IsZero() {
		return
	}
	for {
		old := h.ex.Load()
		if old != nil && old.val >= v {
			return
		}
		if h.ex.CompareAndSwap(old, &hExemplar{val: v, trace: trace}) {
			return
		}
	}
}

// Exemplar returns the pinned exemplar, if any.
func (h *Histogram) Exemplar() (v float64, trace TraceID, ok bool) {
	if h == nil {
		return 0, TraceID{}, false
	}
	e := h.ex.Load()
	if e == nil {
		return 0, TraceID{}, false
	}
	return e.val, e.trace, true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observed value (exact), or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h == nil || h.total.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the rank. The lower edge of the first bucket is
// taken as 0 (every instrumented quantity here is nonnegative); ranks
// landing in the +Inf bucket return the exact maximum. The estimate is
// deterministic for a deterministic observation multiset.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum, lower := 0.0, 0.0
	for i, upper := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			est := lower + (upper-lower)*frac
			// Never report beyond the exact observed maximum.
			if m := h.Max(); est > m {
				est = m
			}
			return est
		}
		cum += c
		lower = upper
	}
	return h.Max()
}

// BucketBound returns the i-th upper bound; i == NumBuckets()-1 is +Inf.
func (h *Histogram) BucketBound(i int) float64 {
	if i >= len(h.bounds) {
		return math.Inf(1)
	}
	return h.bounds[i]
}

// NumBuckets returns the bucket count including the +Inf bucket.
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// BucketCount returns the raw (non-cumulative) count of bucket i.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// HistogramState is the serializable state of a histogram, used by the
// durability layer to carry per-subscription delay distributions across a
// restart. Exemplars are trace-scoped and deliberately not persisted.
type HistogramState struct {
	Bounds []float64
	Counts []int64
	Total  int64
	Sum    float64
	Max    float64 // valid only when Total > 0
}

// State captures the histogram's counters. Concurrent observations may or
// may not be included — the usual metrics contract.
func (h *Histogram) State() HistogramState {
	if h == nil {
		return HistogramState{}
	}
	st := HistogramState{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Total:  h.total.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		st.Counts[i] = h.counts[i].Load()
	}
	if st.Total > 0 {
		st.Max = math.Float64frombits(h.max.Load())
	}
	return st
}

// RestoreHistogram rebuilds a histogram from a captured state.
func RestoreHistogram(st HistogramState) *Histogram {
	h := NewHistogram(st.Bounds)
	for i, c := range st.Counts {
		if i < len(h.counts) {
			h.counts[i].Store(c)
		}
	}
	h.total.Store(st.Total)
	h.sum.Store(math.Float64bits(st.Sum))
	if st.Total > 0 {
		h.max.Store(math.Float64bits(st.Max))
	}
	return h
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and multiplying by factor: start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets is the default bound set for wall-clock stage timings, spanning
// 1µs to ~4s exponentially (factor 4). Hot-path stages (a single solver
// phase, one index append) land in the low microseconds; whole experiment
// replays in the seconds.
var TimeBuckets = ExpBuckets(1e-6, 4, 12)

// DelayBuckets is the default bound set for event-time decision delays in
// seconds, spanning 0.25s to ~2048s (factor 2) — the range of τ used across
// the paper's experiments.
var DelayBuckets = ExpBuckets(0.25, 2, 14)
