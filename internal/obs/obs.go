// Package obs is the repo's zero-dependency observability substrate: a
// registry of named counters, gauges and fixed-bucket histograms whose hot
// paths are single atomic operations, plus a lightweight span tracer with a
// bounded in-memory journal (see trace.go). The registry exposes itself in
// Prometheus text format (WritePrometheus), which backs the pub/sub server's
// /metrics/prometheus endpoint.
//
// Instrumentation is opt-in and near-free when disabled: every method is a
// no-op on a nil receiver, and a nil *Registry hands out nil instruments, so
// packages wire themselves with
//
//	var reg *obs.Registry // nil = disabled
//	c := reg.Counter("mqdp_pkg_things_total", "things done")
//	c.Inc() // no-op branch when disabled
//
// and pay one predictable branch per call on the disabled path. Metric names
// follow the scheme mqdp_<pkg>_<name>, with _total for counters and
// _seconds for duration histograms.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// kind discriminates the instrument registered under a name.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds named instruments. The zero value is not usable; NewRegistry
// returns an empty one and a nil *Registry is the disabled mode: it hands out
// nil instruments whose methods are all no-ops. Instrument creation takes a
// mutex (wiring happens once, off the hot path); instrument updates are
// lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]kind
	help     map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   atomic.Pointer[Tracer]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]kind),
		help:     make(map[string]string),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// register claims name for k, panicking on a kind collision (a programmer
// error: two packages disagree about what a name is). Caller holds r.mu.
func (r *Registry) register(name, help string, k kind) {
	if prev, ok := r.kinds[name]; ok && prev != k {
		panic("obs: metric " + name + " registered as " + prev.String() + " and " + k.String())
	}
	r.kinds[name] = k
	if help != "" || r.help[name] == "" {
		r.help[name] = help
	}
}

// Counter returns the counter registered under name, creating it if needed.
// A nil registry returns nil (every Counter method no-ops on nil).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindCounter)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterCounter adopts an existing counter under name (used to expose
// instruments that predate the registry, e.g. the server's service totals).
// It replaces any counter previously registered under the name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindCounter)
	r.counters[name] = c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindGauge)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with the
// given bucket upper bounds if needed (an implicit +Inf bucket is appended).
// Buckets of an existing histogram are kept; bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindHistogram)
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SetTracer attaches a span tracer. The registry's owner reads it back with
// Tracer when it builds its instruments (server.New does), so attach the
// tracer before handing the registry over.
func (r *Registry) SetTracer(t *Tracer) {
	if r != nil {
		r.tracer.Store(t)
	}
}

// Tracer returns the attached tracer, or nil (nil Registry included).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// names returns every registered metric name, sorted, for deterministic
// exposition. Caller holds r.mu.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.kinds))
	for name := range r.kinds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Counter is a monotonically increasing int64. The zero value is ready to
// use and all methods no-op on a nil receiver, so instruments handed out by
// a nil registry cost one predictable branch per call.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d and returns the new value (0 on a nil receiver). Returning the
// value lets sequence-number generators live on the same type.
func (c *Counter) Add(d int64) int64 {
	if c == nil {
		return 0
	}
	return c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d via a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
