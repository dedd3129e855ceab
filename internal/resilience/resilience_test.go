package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *Backoff { return NewBackoff(10*time.Millisecond, 200*time.Millisecond, 42) }
	a, b := mk(), mk()
	var prevHi time.Duration = 10 * time.Millisecond
	for i := 0; i < 20; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < 10*time.Millisecond || da > 200*time.Millisecond {
			t.Fatalf("step %d: delay %v outside [base, cap]", i, da)
		}
		// Decorrelated jitter: each delay ≤ 3×previous (clamped to cap).
		if hi := 3 * prevHi; da > hi && hi <= 200*time.Millisecond {
			t.Fatalf("step %d: delay %v exceeds 3×prev (%v)", i, da, hi)
		}
		prevHi = da
	}
	if first := mk().Next(); first != 10*time.Millisecond {
		t.Errorf("first delay = %v, want base exactly", first)
	}
	a.Reset()
	if d := a.Next(); d != 10*time.Millisecond {
		t.Errorf("post-Reset delay = %v, want base", d)
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if d := b.Next(); d != 50*time.Millisecond {
		t.Errorf("default base = %v, want 50ms", d)
	}
	// cap below base is raised to base.
	b = NewBackoff(time.Second, time.Millisecond, 1)
	for i := 0; i < 5; i++ {
		if d := b.Next(); d != time.Second {
			t.Errorf("cap<base: delay = %v, want base", d)
		}
	}
}

func TestSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep on canceled ctx = %v", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Errorf("Sleep(0) = %v", err)
	}
}

// fakeClock is a settable time source for the bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tb := NewTokenBucket(10, 3) // 10 tokens/s, burst 3
	tb.SetClock(clk.now)
	for i := 0; i < 3; i++ {
		if !tb.Allow(1) {
			t.Fatalf("burst request %d refused", i)
		}
	}
	if tb.Allow(1) {
		t.Fatal("empty bucket allowed")
	}
	if ra := tb.RetryAfter(); ra <= 0 || ra > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms]", ra)
	}
	clk.advance(100 * time.Millisecond) // one token refills
	if !tb.Allow(1) {
		t.Fatal("refilled token refused")
	}
	if tb.Allow(1) {
		t.Fatal("second token allowed after a single refill")
	}
	// Refill clamps at burst.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !tb.Allow(1) {
			t.Fatalf("post-idle request %d refused", i)
		}
	}
	if tb.Allow(1) {
		t.Fatal("burst cap not enforced after idle")
	}
}

func TestTokenBucketZeroRateNeverRefills(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tb := NewTokenBucket(0, 2)
	tb.SetClock(clk.now)
	if !tb.Allow(1) || !tb.Allow(1) {
		t.Fatal("initial burst refused")
	}
	clk.advance(time.Hour)
	if tb.Allow(1) {
		t.Fatal("zero-rate bucket refilled")
	}
	if ra := tb.RetryAfter(); ra != time.Hour {
		t.Errorf("zero-rate RetryAfter = %v, want 1h sentinel", ra)
	}
}

func TestInflight(t *testing.T) {
	f := NewInflight(2)
	if f.Cap() != 2 {
		t.Fatalf("Cap = %d", f.Cap())
	}
	if !f.TryAcquire() || !f.TryAcquire() {
		t.Fatal("capacity refused")
	}
	if f.TryAcquire() {
		t.Fatal("over-capacity admitted")
	}
	if f.InUse() != 2 {
		t.Fatalf("InUse = %d", f.InUse())
	}
	// Acquire blocks until a slot frees.
	done := make(chan error, 1)
	go func() { done <- f.Acquire(context.Background()) }()
	select {
	case <-done:
		t.Fatal("Acquire returned with no free slot")
	case <-time.After(20 * time.Millisecond):
	}
	f.Release()
	if err := <-done; err != nil {
		t.Fatalf("Acquire after release = %v", err)
	}
	// Acquire honors context cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := f.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Acquire = %v, want deadline exceeded", err)
	}
}
