package obs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartTrace("req")
	hdr := root.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55 (%q)", len(hdr), hdr)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent framing wrong: %q", hdr)
	}
	trace, parent, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected our own header %q", hdr)
	}
	if trace != root.TraceID() {
		t.Errorf("round-tripped trace = %s, want %s", trace, root.TraceID())
	}
	if parent != root.SpanID() {
		t.Errorf("round-tripped parent = %d, want %d", parent, root.SpanID())
	}
	// Untraced and nil spans emit no header.
	if got := tr.Start("legacy").Traceparent(); got != "" {
		t.Errorf("untraced span Traceparent = %q, want empty", got)
	}
	var nilSpan *ActiveSpan
	if got := nilSpan.Traceparent(); got != "" {
		t.Errorf("nil span Traceparent = %q, want empty", got)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	good := FormatTraceparent(NewTraceID(), 42)
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", good, true},
		{"empty", "", false},
		{"short", good[:54], false},
		{"bad dash 2", "00x" + good[3:], false},
		{"reserved version ff", "ff" + good[2:], false},
		{"nonhex version", "zz" + good[2:], false},
		{"zero trace", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"zero parent", "00-" + good[3:35] + "-0000000000000000-01", false},
		{"uppercase trace", "00-" + strings.ToUpper(good[3:35]) + good[35:], false},
		{"uppercase parent", good[:36] + strings.ToUpper("00f067aa0ba902b7") + good[52:], false},
		{"version 00 trailing junk", good + "-extra", false},
		{"future version extra fields", "01" + good[2:] + "-extra", true},
		{"nonhex flags", good[:53] + "zz", false},
		{"nonhex trace", "00-" + strings.Repeat("g", 32) + good[35:], false},
	}
	for _, tc := range cases {
		_, _, ok := ParseTraceparent(tc.in)
		if ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.in, ok, tc.ok)
		}
	}
}

func TestStartSpanContext(t *testing.T) {
	// No active span: same context back, nil child, all methods no-op.
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("StartSpan without a parent must return a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("StartSpan without a parent must not wrap the context")
	}
	span.Set("k", "v")
	span.SetError(errors.New("x"))
	span.End() // must not panic

	tr := NewTracer(64)
	root := tr.StartTrace("req")
	ctx = ContextWithSpan(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext did not return the installed span")
	}
	ctx2, child := StartSpan(ctx, "stage")
	if child == nil {
		t.Fatal("StartSpan with a parent returned nil")
	}
	if child.TraceID() != root.TraceID() {
		t.Error("child did not inherit the trace ID")
	}
	if FromContext(ctx2) != child {
		t.Error("child context does not carry the child span")
	}
	child.End()
	root.End()
	spans := tr.Trace(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("journaled %d spans, want 2", len(spans))
	}
	var childSpan Span
	for _, s := range spans {
		if s.Name == "stage" {
			childSpan = s
		}
	}
	if childSpan.Parent != root.SpanID() {
		t.Errorf("child parent = %d, want %d", childSpan.Parent, root.SpanID())
	}
}

func TestTailRetentionSampling(t *testing.T) {
	tr := NewTracer(1024)
	tr.SetRetention(time.Hour, 4) // nothing is "slow"; keep 1 in 4 boring traces

	boring := func() TraceID {
		root := tr.StartTrace("req")
		root.Child("stage").End()
		root.End()
		return root.TraceID()
	}
	var kept, discarded int
	for i := 0; i < 8; i++ {
		id := boring()
		if len(tr.Trace(id)) > 0 {
			kept++
		} else {
			discarded++
		}
	}
	if kept != 2 || discarded != 6 {
		t.Errorf("sampling kept %d / discarded %d of 8 boring traces, want 2 / 6", kept, discarded)
	}

	// An errored trace is always retained, wherever the sample tick stands,
	// and the whole trace comes with it — children included.
	root := tr.StartTrace("req")
	c := root.Child("stage")
	c.SetError(errors.New("boom"))
	c.End()
	root.End()
	got := tr.Trace(root.TraceID())
	if len(got) != 2 {
		t.Fatalf("errored trace journaled %d spans, want 2", len(got))
	}

	st := tr.Stats()
	if st.SampledOut != 12 { // 6 discarded boring traces × 2 spans
		t.Errorf("SampledOut = %d, want 12", st.SampledOut)
	}
	if st.Pending != 0 {
		t.Errorf("Pending = %d, want 0 after all roots ended", st.Pending)
	}
}

func TestTailRetentionSlow(t *testing.T) {
	tr := NewTracer(64)
	tr.SetRetention(time.Nanosecond, 1<<30) // sample ~nothing, but slowness pins
	root := tr.StartTrace("req")
	time.Sleep(time.Millisecond)
	root.End()
	if len(tr.Trace(root.TraceID())) != 1 {
		t.Error("slow trace was not retained")
	}
}

func TestTailRetentionUntracedBypasses(t *testing.T) {
	tr := NewTracer(64)
	tr.SetRetention(time.Hour, 1<<30) // would sample out everything traced
	s := tr.Start("solver.stage")
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("untraced span journaled %d entries, want 1 (must bypass sampling)", got)
	}
}

// TestSetAfterEndIsNoop pins the aliasing fix: annotations after End must not
// mutate the journaled span (they used to append into the Attrs backing array
// the ring still referenced).
func TestSetAfterEndIsNoop(t *testing.T) {
	tr := NewTracer(8)
	s := tr.Start("op")
	s.Set("a", "1")
	s.End()
	s.Set("b", "2")
	s.SetError(errors.New("late"))
	s.End() // double End no-ops
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("journaled %d spans, want 1", len(spans))
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Key != "a" {
		t.Errorf("attrs = %v, want only the pre-End attr", spans[0].Attrs)
	}
	if spans[0].Err != "" {
		t.Errorf("err = %q, want empty (SetError after End must no-op)", spans[0].Err)
	}
}

// TestDumpWhileEndHammer races journal readers against span writers; run with
// -race. Before Spans deep-copied attrs, a reader walking a returned span's
// Attrs raced with the ring slot being overwritten.
func TestDumpWhileEndHammer(t *testing.T) {
	tr := NewTracer(32) // small ring: constant wraparound pressure
	tr.SetRetention(0, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				root := tr.StartTrace("req")
				c := root.Child("stage")
				c.Set("k", "v")
				c.SetInt("i", int64(i))
				c.End()
				root.SetInt("seed", int64(seed))
				root.End()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			spans := tr.Spans()
			for _, s := range spans {
				for i := range s.Attrs {
					// Mutating the returned copy must never touch the ring.
					s.Attrs[i].Val = "clobbered"
				}
			}
			if len(spans) > 0 {
				for _, s := range tr.Trace(spans[0].Trace) {
					for i := range s.Attrs {
						s.Attrs[i].Val = "clobbered"
					}
				}
			}
			tr.Summaries()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mqdp_test_exemplar_seconds", "exemplar carrier", []float64{0.1, 1})
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram must have no exemplar")
	}
	big, small := NewTraceID(), NewTraceID()
	h.ObserveTraced(0.5, big)
	h.ObserveTraced(0.05, small) // smaller: must not displace
	h.Observe(2)                 // untraced: never an exemplar
	v, trace, ok := h.Exemplar()
	if !ok || v != 0.5 || trace != big {
		t.Fatalf("exemplar = (%v, %s, %v), want (0.5, %s, true)", v, trace, ok, big)
	}
	h.attachExemplar(3, TraceID{}) // zero trace no-ops
	if _, trace, _ := h.Exemplar(); trace != big {
		t.Error("zero-trace attachExemplar displaced the exemplar")
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `le="+Inf"} 3 # {trace_id="` + big.String() + `"} 0.5`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing exemplar suffix %q:\n%s", want, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line does not match the exposition grammar: %q", line)
		}
	}
}

func TestSLOMath(t *testing.T) {
	slo := NewSLO("ingest", 10*time.Millisecond, 0.9)
	var nilSLO *SLO
	nilSLO.Observe(time.Second) // no-op
	if nilSLO.Name() != "" || nilSLO.Status() != (SLOStatus{}) {
		t.Fatal("nil SLO must be inert")
	}
	slo.Observe(time.Millisecond)      // good
	slo.Observe(10 * time.Millisecond) // boundary: good
	slo.Observe(time.Second)           // bad
	st := slo.Status()
	if st.Good != 2 || st.Bad != 1 {
		t.Fatalf("good/bad = %d/%d, want 2/1", st.Good, st.Bad)
	}
	// bad fraction 1/3 against a 10% budget → burning ~3.33× allowed pace.
	want := (1.0 / 3.0) / 0.1
	if diff := st.BurnRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("burn rate = %v, want %v", st.BurnRate, want)
	}
	if diff := st.WindowBurnRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("window burn rate = %v, want %v (all observations are recent)", st.WindowBurnRate, want)
	}
	if st.ObjectiveSeconds != 0.01 || st.Target != 0.9 {
		t.Errorf("status identity = %+v", st)
	}

	// Out-of-range targets clamp.
	if NewSLO("x", time.Second, 1.5).Status().Target != 0.99 {
		t.Error("target > 1 must clamp to 0.99")
	}

	r := NewRegistry()
	slo.Register(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mqdp_slo_ingest_good_total 2", "mqdp_slo_ingest_bad_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSummariesAndTree(t *testing.T) {
	tr := NewTracer(64)
	tr.SetRetention(0, 1)
	root := tr.StartTrace("http.ingest")
	a := root.Child("server.admit")
	a.End()
	b := root.Child("ingest.post")
	c := b.Child("sub.process")
	c.SetError(errors.New("boom"))
	c.End()
	b.End()
	root.End()

	sums := tr.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
	sum := sums[0]
	if sum.Trace != root.TraceID() || sum.Root != "http.ingest" || sum.Spans != 4 || sum.Errors != 1 {
		t.Errorf("summary = %+v", sum)
	}

	roots := BuildTraceTree(tr.Trace(root.TraceID()))
	if len(roots) != 1 || roots[0].Name != "http.ingest" {
		t.Fatalf("tree roots = %v", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(roots[0].Children))
	}
	if roots[0].Children[0].Name != "server.admit" {
		t.Error("siblings not in start order")
	}
	deep := roots[0].Children[1]
	if deep.Name != "ingest.post" || len(deep.Children) != 1 || deep.Children[0].Name != "sub.process" {
		t.Errorf("nesting wrong: %+v", deep)
	}

	var buf bytes.Buffer
	if err := WriteTraceTree(&buf, roots); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "http.ingest ") ||
		!strings.Contains(text, "\n  server.admit ") ||
		!strings.Contains(text, "\n    sub.process ") ||
		!strings.Contains(text, `err="boom"`) {
		t.Errorf("tree text rendering wrong:\n%s", text)
	}
}
