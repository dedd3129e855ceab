package stream

import "slices"

// Continuous diversified top-k maintenance, per "Continuous Top-k Queries
// over Real-Time Web Streams" and the incremental-maintenance angle of
// "Diversifying Top-K Results": instead of only appending λ-cover decisions
// to a log, keep a live ranked view of the current cover that a dashboard
// can render at any instant. The view is maintained incrementally — one
// ranked insert per cover emission, one expiry sweep per window slide — so
// per-post cost stays far below recomputing a top-k over the window.

// maxTopKCandidates bounds the candidate set behind a view. The view keeps
// only items that can still become visible (see TopK): exactly k without a
// window, and with one, k plus the items that rank below others yet outlive
// them (coverage rising while value falls), which is what the cap bounds.
// A variable so tests can exercise the overflow path cheaply.
var maxTopKCandidates = 4096

// TopKItem is one ranked member of a continuous top-k view: an opaque
// payload plus the metadata the view ranks and expires by.
type TopKItem[T any] struct {
	// Value is the diversity-dimension value (event time); expiry slides
	// on it and fresher items outrank staler ones at equal coverage.
	Value float64
	// Coverage is how many of the subscription's queries the item served
	// when it was emitted — the diversification payoff of keeping it.
	Coverage int
	// Seq is the emission sequence number, the final deterministic
	// tiebreak (earlier emission wins).
	Seq int64
	// Payload travels with the item and is returned by Items.
	Payload T
}

// before is the view's total rank order: coverage descending (items that
// serve more queries first), then value descending (fresher first), then
// seq ascending. A strict total order over distinct seqs, so the view is
// identical for any ingest parallelism.
func (a *TopKItem[T]) before(b *TopKItem[T]) bool {
	if a.Coverage != b.Coverage {
		return a.Coverage > b.Coverage
	}
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Seq < b.Seq
}

// TopK maintains a continuously updated diversified top-k view over a
// λ-cover emission stream. Feed every cover emission to Insert as it is
// decided and call Advance as event time moves; Items is the current view
// in rank order.
//
// The view keeps only candidates that can still become visible: an item
// is dropped once k retained items rank before it and expire no earlier
// than it (they "dominate" it: Value ≥ its Value with a window, any Value
// without one). Those k items stay ahead of it for as long as it lives,
// so an item sliding out of the window still promotes the right
// successor without revisiting past decisions. This is the k-skyband of
// sliding-window top-k monitoring; without a window it is exactly the
// top k. Dominance is transitive and a dominator never expires before the
// items it dominates, so the per-item dominator counts stay exact under
// both pruning and expiry.
//
// TopK is not safe for concurrent use; callers guard it with the same lock
// that orders their emission stream.
type TopK[T any] struct {
	k       int
	window  float64
	now     float64       // stream-time watermark anchoring the window
	items   []TopKItem[T] // retained candidates in rank order
	doms    []int         // doms[i] = retained items dominating items[i], < k
	version uint64
}

// NewTopK returns a view of size k (clamped to ≥ 1) over a sliding window
// of the given width in value units; window ≤ 0 disables expiry, leaving
// rank displacement as the only way out of the view.
func NewTopK[T any](k int, window float64) *TopK[T] {
	if k < 1 {
		k = 1
	}
	return &TopK[T]{k: k, window: window}
}

// K reports the configured view size.
func (t *TopK[T]) K() int { return t.k }

// Window reports the configured sliding-window width (0 = no expiry).
func (t *TopK[T]) Window() float64 { return t.window }

// Len reports the retained candidate count: the visible items plus the
// spares that can still become visible when a visible item expires.
func (t *TopK[T]) Len() int { return len(t.items) }

// Version counts visible-view changes: it bumps exactly when the top
// min(k, Len) ranked items change, so pollers and push hubs can skip
// no-op snapshots. A fresh view is version 0.
func (t *TopK[T]) Version() uint64 { return t.version }

// outlasts reports whether an item of value a expires no earlier than one
// of value b.
func (t *TopK[T]) outlasts(a, b float64) bool {
	return t.window <= 0 || a >= b
}

// dominators counts, up to k, the items in ranked that outlast an item of
// value v; every one of them ranks before that item.
func (t *TopK[T]) dominators(ranked []TopKItem[T], v float64) int {
	n := 0
	for i := range ranked {
		if t.outlasts(ranked[i].Value, v) {
			if n++; n == t.k {
				break
			}
		}
	}
	return n
}

// Insert adds one cover emission to the candidate set and reports whether
// the visible top-k changed. Items already behind the window are rejected
// outright, which makes Insert(x); Advance(now) order-insensitive.
func (t *TopK[T]) Insert(it TopKItem[T]) bool {
	if it.Value > t.now {
		t.now = it.Value
	}
	// The stream-time watermark anchors the window; an item that would
	// expire immediately never enters.
	if t.window > 0 && it.Value < t.now-t.window {
		return false
	}
	// Binary search for the rank-order insertion point.
	lo, hi := 0, len(t.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.items[mid].before(&it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= maxTopKCandidates {
		return false // ranks below every retained candidate at capacity
	}
	d := t.dominators(t.items[:lo], it.Value)
	if d >= t.k {
		return false // can never become visible; lo ≥ d ≥ k
	}
	// Count the new item into every later item it outlasts, compacting
	// away those that reach k dominators, then open its slot at lo.
	n, w := len(t.items), lo
	for r := lo; r < n; r++ {
		c := t.doms[r]
		if t.outlasts(it.Value, t.items[r].Value) {
			if c++; c >= t.k {
				continue
			}
		}
		if w != r {
			t.items[w] = t.items[r]
		}
		t.doms[w] = c
		w++
	}
	t.items = slices.Insert(t.items[:w], lo, it)
	t.doms = slices.Insert(t.doms[:w], lo, d)
	if w < n {
		clear(t.items[w+1 : n]) // stale copies left behind the compaction
	}
	if w >= maxTopKCandidates {
		t.truncate(maxTopKCandidates)
	}
	changed := lo < t.k
	if changed {
		t.version++
	}
	return changed
}

// truncate keeps the first n retained items, clearing the dropped tail so
// pooled payloads don't pin memory.
func (t *TopK[T]) truncate(n int) {
	clear(t.items[n:])
	t.items = t.items[:n]
	t.doms = t.doms[:n]
}

// Advance slides the window to event time now, expiring candidates whose
// value fell behind now−window, and reports whether the visible top-k
// changed. A no-op when the view has no window. No dominator count moves:
// an expiring item outlasts only items that expire with it.
func (t *TopK[T]) Advance(now float64) bool {
	if now > t.now {
		t.now = now
	}
	if t.window <= 0 || len(t.items) == 0 {
		return false
	}
	cutoff := t.now - t.window
	changed := false
	w := 0
	for r := range t.items {
		if t.items[r].Value >= cutoff {
			if w != r {
				t.items[w], t.doms[w] = t.items[r], t.doms[r]
			}
			w++
		} else if r < t.k {
			changed = true
		}
	}
	t.truncate(w)
	if changed {
		t.version++
	}
	return changed
}

// Items returns a copy of the visible view — the top min(k, Len)
// candidates in rank order.
func (t *TopK[T]) Items() []TopKItem[T] {
	n := len(t.items)
	if n > t.k {
		n = t.k
	}
	out := make([]TopKItem[T], n)
	copy(out, t.items[:n])
	return out
}
