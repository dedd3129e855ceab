package resilience

import (
	"context"
	"errors"
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
