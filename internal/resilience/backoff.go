// Package resilience is the repo's stdlib-only fault-tolerance toolkit:
// exponential backoff with decorrelated jitter, a token-bucket rate
// limiter, an in-flight admission semaphore and a context-aware Sleep.
// Backoff takes an RNG seed and TokenBucket an injectable clock, so their
// own tests replay exactly.
//
// The pieces are deliberately decoupled: the pub/sub server composes
// TokenBucket + Inflight into its admission controller, while the HTTP
// client drives its RetryPolicy with Backoff and Sleep. Nothing here
// imports anything above the standard library.
package resilience

import (
	"context"
	"math/rand"
	"time"
)

// Backoff produces retry delays using "decorrelated jitter": each delay
// is drawn uniformly from [base, 3×previous], clamped to cap. Compared
// with plain exponential backoff this spreads a burst of retrying
// clients across the whole window instead of synchronizing them on the
// powers of two, while still growing toward cap on repeated failure.
//
// A Backoff is seeded and single-goroutine: give each retry loop its
// own instance (they are two words plus an RNG) rather than sharing one.
type Backoff struct {
	base, cap time.Duration
	prev      time.Duration
	rng       *rand.Rand
}

// NewBackoff returns a decorrelated-jitter backoff over [base, cap]
// driven by a deterministic RNG seeded with seed. base and cap are
// defaulted to 50ms and 5s when nonpositive; cap is raised to base.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 5 * time.Second
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay. The first call returns base exactly, so
// a single transient failure costs a predictable, minimal pause.
func (b *Backoff) Next() time.Duration {
	if b.prev == 0 {
		b.prev = b.base
		return b.base
	}
	hi := 3 * b.prev
	if hi > b.cap {
		hi = b.cap
	}
	d := b.base
	if span := int64(hi - b.base); span > 0 {
		d += time.Duration(b.rng.Int63n(span + 1))
	}
	b.prev = d
	return d
}

// Reset forgets the failure history; the next delay is base again.
func (b *Backoff) Reset() { b.prev = 0 }

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case. Retry loops use it so cancellation cuts a backoff short.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
