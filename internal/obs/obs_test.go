package obs

import (
	"io"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	if got := c.Add(4); got != 5 {
		t.Fatalf("Add returned %d, want 5", got)
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("test_total", ""); again != c {
		t.Fatal("re-registering a counter returned a different instrument")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestNilFastPaths(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", TimeBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	// Every method must be a safe no-op.
	c.Inc()
	if c.Add(3) != 0 || c.Value() != 0 {
		t.Fatal("nil counter not a no-op")
	}
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge not a no-op")
	}
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not a no-op")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	sp := tr.Start("noop")
	sp.Set("k", "v")
	sp.Child("c").End()
	sp.End()
	if tr.Spans() != nil || tr.Stats() != (TracerStats{}) {
		t.Fatal("nil tracer not a no-op")
	}
	if r.Tracer() != nil {
		t.Fatal("nil registry returned a tracer")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering clash as gauge after counter did not panic")
		}
	}()
	r.Gauge("clash", "")
}

func TestRegisterAdoptsExistingInstruments(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	r.RegisterCounter("adopted_total", "pre-existing", &c)
	c.Inc()
	if got := r.Counter("adopted_total", ""); got != &c || got.Value() != 8 {
		t.Fatalf("adopted counter = %p (%d), want %p (8)", got, got.Value(), &c)
	}
}

// TestConcurrencyHammer pounds one registry with parallel increments,
// observations and snapshot/exposition reads; run under -race it proves the
// hot paths are data-race free, and the final totals prove no update is lost.
func TestConcurrencyHammer(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	r.SetTracer(tr)
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
				if i%100 == 0 {
					sp := r.Tracer().Start("hammer")
					sp.SetInt("worker", int64(w))
					sp.End()
				}
			}
		}()
	}
	// Concurrent readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.WritePrometheus(io.Discard)
				_ = tr.Spans()
			}
		}()
	}
	wg.Wait()

	const n = workers * perWorker
	if c.Value() != n {
		t.Errorf("counter = %d, want %d", c.Value(), n)
	}
	if g.Value() != n {
		t.Errorf("gauge = %v, want %d", g.Value(), n)
	}
	if h.Count() != n {
		t.Errorf("histogram count = %d, want %d", h.Count(), n)
	}
	var cum int64
	for i := 0; i < h.NumBuckets(); i++ {
		cum += h.BucketCount(i)
	}
	if cum != n {
		t.Errorf("bucket counts sum to %d, want %d", cum, n)
	}
	if h.Max() != 0.99 {
		t.Errorf("max = %v, want 0.99", h.Max())
	}
	if got := len(tr.Spans()); got != 64 {
		t.Errorf("ring retained %d spans, want 64 (capacity)", got)
	}
}
