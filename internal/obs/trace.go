package obs

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier in the W3C trace-context shape. The
// zero value means "untraced": spans with a zero TraceID bypass tail-based
// retention and go straight to the journal ring (the pre-request-tracing
// behavior, still used by the solver stage spans).
type TraceID [16]byte

// IsZero reports whether t is the untraced sentinel.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders t as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// MarshalJSON encodes t as a hex string.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON decodes a 32-hex-digit string.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: trace id must be a JSON string")
	}
	id, ok := ParseTraceID(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("obs: malformed trace id %s", b)
	}
	*t = id
	return nil
}

// ParseTraceID parses 32 hex digits; the all-zero ID is rejected (it is the
// untraced sentinel, and the W3C spec forbids it on the wire too).
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if t.IsZero() {
		return t, false
	}
	return t, true
}

// Trace ID generation: splitmix64 over an atomic counter mixed with a
// per-process seed. Lock-free, unique within the process, and distinct
// across processes with overwhelming probability.
var (
	traceSeed = uint64(time.Now().UnixNano())
	traceCtr  atomic.Uint64
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID returns a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		n := traceCtr.Add(1)
		hi := splitmix64(traceSeed + n)
		lo := splitmix64(hi ^ n)
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (8 * (7 - i)))
			t[8+i] = byte(lo >> (8 * (7 - i)))
		}
	}
	return t
}

// Tracer records finished spans into a bounded in-memory ring journal for
// post-mortem analysis (the server's /debug/traces).
// Starting and annotating a span touches only the span itself; the ring is
// locked once, at End. When the ring is full the oldest spans are overwritten
// and counted as dropped.
//
// Spans carrying a TraceID buffer per trace until their local root ends, then
// tail-based retention decides the whole trace's fate at once (see
// SetRetention): error traces and slow traces are always journaled, boring
// traces are sampled. Untraced spans (legacy Start) skip the buffer.
//
// All methods no-op on a nil *Tracer, so callers thread an optional tracer
// the same way they thread optional instruments.
type Tracer struct {
	ids     atomic.Uint64
	mu      sync.Mutex
	ring    []Span
	next    int
	wrapped bool
	dropped uint64

	// Tail-based retention state. slow/sampleEvery are set once at wiring
	// time (SetRetention) before concurrent use.
	slow         time.Duration
	sampleEvery  int
	sampleTick   uint64
	recorded     uint64 // spans journaled
	sampledOut   uint64 // spans discarded by the sampling decision
	pending      map[TraceID]*pendingTrace
	pendingSpans int
}

// pendingTrace buffers one in-flight trace's finished spans until its local
// root ends and the retention decision runs.
type pendingTrace struct {
	spans   []Span
	err     bool
	slow    bool
	flushed bool // overflowed to the ring already; later spans follow directly
}

const (
	// maxPendingTraces bounds the tail-sampling buffer across traces; when
	// full, spans of new traces bypass buffering and journal directly.
	maxPendingTraces = 1024
	// maxPendingSpansPerTrace bounds one trace's buffer; an oversized trace
	// is flushed to the ring and stops buffering (i.e. it is always kept).
	maxPendingSpansPerTrace = 256
)

// Span is one finished journal entry.
type Span struct {
	Trace  TraceID   `json:"trace,omitempty"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"` // 0 = root
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Err    string    `json:"err,omitempty"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Attr is one key=value span annotation.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// NewTracer returns a tracer whose journal retains the most recent capacity
// spans (minimum 1). By default every ended span is journaled; SetRetention
// turns on tail-based sampling for traced spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Span, capacity), pending: make(map[TraceID]*pendingTrace)}
}

// SetRetention configures tail-based retention for traced spans: a trace is
// always journaled when any of its spans errored or ran at least slow;
// otherwise one in sampleEvery boring traces is kept and the rest are
// discarded (counted in Stats().SampledOut). slow <= 0 disables the slow
// rule; sampleEvery <= 1 keeps every trace. Call before concurrent use.
func (t *Tracer) SetRetention(slow time.Duration, sampleEvery int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = slow
	t.sampleEvery = sampleEvery
	t.mu.Unlock()
}

// ActiveSpan is an in-flight span; it is recorded into the journal at End.
// An ActiveSpan is not safe for concurrent use (one span per goroutine).
type ActiveSpan struct {
	t     *Tracer
	span  Span
	root  bool // local root: its End triggers the trace retention decision
	ended bool
}

// Start opens an untraced root span (zero TraceID): it journals directly at
// End, bypassing tail-based retention. A nil tracer returns a nil span, on
// which every method no-ops.
func (t *Tracer) Start(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, span: Span{ID: t.ids.Add(1), Name: name, Start: time.Now()}}
}

// StartTrace opens the local root span of a fresh trace with a new 128-bit
// trace ID.
func (t *Tracer) StartTrace(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := t.Start(name)
	s.span.Trace = NewTraceID()
	s.root = true
	return s
}

// StartRemote opens a local root span continuing a trace propagated from
// another process (e.g. a traceparent header): the span joins trace and is
// parented to the remote span parentID. Its End still triggers the local
// retention decision — each process tail-samples its own portion.
func (t *Tracer) StartRemote(name string, trace TraceID, parentID uint64) *ActiveSpan {
	if t == nil {
		return nil
	}
	if trace.IsZero() {
		return t.StartTrace(name)
	}
	s := t.Start(name)
	s.span.Trace = trace
	s.span.Parent = parentID
	s.root = true
	return s
}

// Child opens a span parented to s, inheriting its trace ID.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	c := s.t.Start(name)
	c.span.Trace = s.span.Trace
	c.span.Parent = s.span.ID
	return c
}

// TraceID returns the span's trace ID (zero for untraced or nil spans).
func (s *ActiveSpan) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.span.Trace
}

// SpanID returns the span's journal ID (0 for nil spans).
func (s *ActiveSpan) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// Set annotates the span with a key=value attribute. After End it no-ops, so
// a late annotation can never mutate a journaled span's attribute array.
func (s *ActiveSpan) Set(key, val string) {
	if s != nil && !s.ended {
		s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Val: val})
	}
}

// SetInt annotates the span with an integer attribute.
func (s *ActiveSpan) SetInt(key string, v int64) {
	s.Set(key, strconv.FormatInt(v, 10))
}

// SetError marks the span failed; an errored span pins its whole trace into
// the journal regardless of sampling. A nil error no-ops.
func (s *ActiveSpan) SetError(err error) {
	if s != nil && !s.ended && err != nil {
		s.span.Err = err.Error()
	}
}

// End stamps the span and hands it to the journal (directly for untraced
// spans, via the per-trace retention buffer for traced ones). Repeated End
// calls no-op.
func (s *ActiveSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.span.End = time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.span.Trace.IsZero() {
		t.recordLocked(s.span)
		return
	}
	pt := t.pending[s.span.Trace]
	if pt == nil {
		if s.root {
			// Whole trace is this one span (or its children overflowed the
			// pending cap earlier and the entry was dropped); decide now.
			pt = &pendingTrace{}
		} else if len(t.pending) >= maxPendingTraces {
			// Buffer full: journal directly rather than grow without bound.
			t.recordLocked(s.span)
			return
		} else {
			pt = &pendingTrace{}
			t.pending[s.span.Trace] = pt
		}
	}
	if pt.flushed {
		t.recordLocked(s.span)
		if s.root {
			delete(t.pending, s.span.Trace)
		}
		return
	}
	pt.spans = append(pt.spans, s.span)
	t.pendingSpans++
	if s.span.Err != "" {
		pt.err = true
	}
	if t.slow > 0 && s.span.Duration() >= t.slow {
		pt.slow = true
	}
	if s.root {
		delete(t.pending, s.span.Trace)
		t.pendingSpans -= len(pt.spans)
		t.finishLocked(pt)
		return
	}
	if len(pt.spans) >= maxPendingSpansPerTrace {
		// Oversized trace: flush what we have and journal the rest directly.
		for _, sp := range pt.spans {
			t.recordLocked(sp)
		}
		t.pendingSpans -= len(pt.spans)
		pt.spans = nil
		pt.flushed = true
	}
}

// finishLocked runs the tail-based retention decision for a completed trace.
// Caller holds t.mu.
func (t *Tracer) finishLocked(pt *pendingTrace) {
	keep := pt.err || pt.slow
	if !keep {
		if t.sampleEvery <= 1 {
			keep = true
		} else {
			keep = t.sampleTick%uint64(t.sampleEvery) == 0
			t.sampleTick++
		}
	}
	if !keep {
		t.sampledOut += uint64(len(pt.spans))
		return
	}
	for _, sp := range pt.spans {
		t.recordLocked(sp)
	}
}

// recordLocked writes one span into the ring. Caller holds t.mu.
func (t *Tracer) recordLocked(s Span) {
	t.recorded++
	if t.wrapped {
		t.dropped++
	}
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
}

// copySpan deep-copies a ring entry so readers never alias the live Attrs
// backing array.
func copySpan(s Span) Span {
	if len(s.Attrs) > 0 {
		s.Attrs = append([]Attr(nil), s.Attrs...)
	}
	return s
}

// Spans returns the journal contents, oldest first. Attrs are deep-copied:
// the result never aliases live tracer state.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.wrapped {
		n = len(t.ring)
	}
	out := make([]Span, 0, n)
	if t.wrapped {
		for _, s := range t.ring[t.next:] {
			out = append(out, copySpan(s))
		}
	}
	for _, s := range t.ring[:t.next] {
		out = append(out, copySpan(s))
	}
	return out
}

// Trace returns every journaled span of one trace, in start order. Spans of
// the trace that were dropped (ring wrap) or are still pending the retention
// decision are not included.
func (t *Tracer) Trace(id TraceID) []Span {
	if t == nil || id.IsZero() {
		return nil
	}
	var out []Span
	for _, s := range t.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TracerStats summarizes the journal's retention behavior.
type TracerStats struct {
	Recorded   uint64 `json:"recorded"`    // spans journaled (including later overwrites)
	Dropped    uint64 `json:"dropped"`     // journaled spans lost to ring wraparound
	SampledOut uint64 `json:"sampled_out"` // spans discarded by tail sampling
	Pending    uint64 `json:"pending"`     // spans buffered awaiting their trace's root
}

// Stats returns retention counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{
		Recorded:   t.recorded,
		Dropped:    t.dropped,
		SampledOut: t.sampledOut,
		Pending:    uint64(t.pendingSpans),
	}
}
