package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mqdp/internal/obs"
)

// newTracedServer wires a server with a keep-everything tracer behind an
// httptest listener, returning the test server, the core and the tracer.
func newTracedServer(t *testing.T) (*httptest.Server, *Server, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	tracer.SetRetention(0, 1) // retain every trace: tests assert exact contents
	reg.SetTracer(tracer)
	ts, s := newTestServerWith(t, Config{Obs: reg})
	return ts, s, tracer
}

// waitForTrace polls the journal until the trace holds every wanted span
// name. The server's root span ends slightly after the response is written
// (the middleware finishes once the handler returns), so the client can
// observe its reply before the trace is journaled.
func waitForTrace(t *testing.T, tracer *obs.Tracer, id obs.TraceID, want ...string) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := tracer.Trace(id)
		names := map[string]bool{}
		for _, sp := range spans {
			names[sp.Name] = true
		}
		missing := ""
		for _, w := range want {
			if !names[w] {
				missing = w
				break
			}
		}
		if missing == "" {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never recorded span %q; have %d spans: %v", id, missing, len(spans), names)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ingestSpans is the whole server-side trace of one HTTP ingest, whatever
// its post count and fan-out: instrumentation is per batch, not per post
// or per candidate.
var ingestSpans = []string{"http.ingest", "ingest.decode", "ingest.batch"}

// TestTraceEndToEnd is the acceptance path: one ingest batch sent under a
// client-side span is followable end to end — the server-side trace (same
// trace ID) covers the HTTP request, decode and the applied
// batch; /debug/traces serves the tree in both formats; the batch histogram
// exposes an exemplar linking to that trace; and the SSE stream hands back
// the originating trace ID on the resulting emission.
func TestTraceEndToEnd(t *testing.T) {
	ts, s, tracer := newTracedServer(t)

	cl := NewClient(ts.URL)
	id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}

	// The "remote caller": its root span seeds the trace the server joins.
	ct := obs.NewTracer(16)
	ct.SetRetention(0, 1)
	root := ct.StartTrace("client.ingest")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := cl.Ingest(ctx, Post{ID: 1, Time: 0, Text: "obama speaks tonight"}); err != nil {
		t.Fatal(err)
	}
	root.End()
	trace := root.TraceID()

	spans := waitForTrace(t, tracer, trace, ingestSpans...)
	var httpSpan obs.Span
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("span %q recorded under trace %s, want %s", sp.Name, sp.Trace, trace)
		}
		if sp.Name == "http.ingest" {
			httpSpan = sp
		}
	}
	// W3C propagation: the server's request span is parented on the remote
	// client span, not a fresh root.
	if httpSpan.Parent != root.SpanID() {
		t.Errorf("http.ingest parent = %x, want the client span %x", httpSpan.Parent, root.SpanID())
	}

	// X-Trace-Id echoes the propagated trace on a traced request.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	echo := ct.StartTrace("client.stats")
	req.Header.Set("traceparent", echo.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	echo.End()
	if got := resp.Header.Get("X-Trace-Id"); got != echo.TraceID().String() {
		t.Errorf("X-Trace-Id = %q, want %q", got, echo.TraceID().String())
	}

	// /debug/traces lists the ingest trace (JSON and text).
	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, sum := range list.Traces {
		if sum.Trace == trace {
			found = true
			if sum.Root != "http.ingest" {
				t.Errorf("trace summary root = %q, want http.ingest", sum.Root)
			}
			if sum.Spans != len(ingestSpans) {
				t.Errorf("trace summary spans = %d, want %d", sum.Spans, len(ingestSpans))
			}
		}
	}
	if !found {
		t.Fatalf("/debug/traces does not list trace %s: %+v", trace, list.Traces)
	}
	body := getBody(t, ts.URL+"/debug/traces?format=text")
	if !strings.Contains(body, trace.String()) {
		t.Errorf("text trace list missing %s:\n%s", trace, body)
	}

	// /debug/traces/{id} renders the parent-linked tree in both formats.
	resp, err = http.Get(ts.URL + "/debug/traces/" + trace.String())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id} = %d", resp.StatusCode)
	}
	var tree struct {
		Trace string          `json:"trace"`
		Spans int             `json:"spans"`
		Roots []obs.TraceNode `json:"roots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tree.Trace != trace.String() || tree.Spans != len(ingestSpans) || len(tree.Roots) == 0 {
		t.Fatalf("trace tree = %+v", tree)
	}
	text := getBody(t, ts.URL+"/debug/traces/"+trace.String()+"?format=text")
	for _, name := range ingestSpans {
		if !strings.Contains(text, name) {
			t.Errorf("text tree missing span %q:\n%s", name, text)
		}
	}

	// The batch histogram's exemplar is the ingest trace, and retrievable.
	expo := getBody(t, ts.URL+"/metrics/prometheus")
	m := regexp.MustCompile(`mqdp_server_ingest_batch_seconds_bucket\{le="\+Inf"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`).FindStringSubmatch(expo)
	if m == nil {
		t.Fatal("no ingest batch exemplar in /metrics/prometheus exposition")
	}
	if m[1] != trace.String() {
		t.Errorf("ingest batch exemplar trace = %s, want the ingest trace %s", m[1], trace)
	}
	resp, err = http.Get(ts.URL + "/debug/traces/" + m[1])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("exemplar trace %s not retrievable: %d", m[1], resp.StatusCode)
	}

	// The SSE frame for the emission carries the originating ingest trace.
	s.Flush() // terminate the stream after the buffered drain
	var events []StreamEvent
	if err := cl.Stream(context.Background(), id, 0, func(ev StreamEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sawEmission := false
	for _, ev := range events {
		if ev.Emission == nil {
			continue
		}
		sawEmission = true
		if ev.Trace != trace {
			t.Errorf("emission seq %d carries trace %s, want the ingest trace %s", ev.Emission.Seq, ev.Trace, trace)
		}
	}
	if !sawEmission {
		t.Fatal("stream delivered no emission events")
	}
}

// TestTraceSpanBudgetPerBatch pins the span budget of a traced ingest: a
// 64-post batch whose every post routes to every one of 40 or more
// matching, emitting subscriptions records exactly the spans of a 1-post
// batch — ingestSpans, one each.
//
// The cases are named for the fan-out pool thresholds they once set; the
// pool is gone, and each case instead adds that many subscriptions, so the
// budget is checked at two fan-out widths of the one inline path.
func TestTraceSpanBudgetPerBatch(t *testing.T) {
	const wide = 64
	for _, extra := range []int{0, 41} {
		t.Run(fmt.Sprintf("threshold=%d", extra), func(t *testing.T) {
			subs := 40 + extra
			ts, s, tracer := newTracedServer(t)
			for i := 0; i < subs; i++ {
				if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"}); err != nil {
					t.Fatal(err)
				}
			}
			cl := NewClient(ts.URL)
			ct := obs.NewTracer(16)
			next := 0
			ingest := func(n int) []obs.Span {
				t.Helper()
				batch := make([]Post, n)
				for i := range batch {
					next++
					batch[i] = Post{ID: int64(next), Time: float64(next), Text: fmt.Sprintf("obama update %d", next)}
				}
				root := ct.StartTrace("client.ingest")
				if _, err := cl.Ingest(obs.ContextWithSpan(context.Background(), root), batch...); err != nil {
					t.Fatal(err)
				}
				root.End()
				return waitForTrace(t, tracer, root.TraceID(), ingestSpans...)
			}
			for _, n := range []int{1, wide} {
				counts := map[string]int{}
				attrs := map[string]string{}
				for _, sp := range ingest(n) {
					counts[sp.Name]++
					if sp.Name == "ingest.batch" {
						for _, a := range sp.Attrs {
							attrs[a.Key] = a.Val
						}
					}
				}
				want := map[string]int{}
				for _, name := range ingestSpans {
					want[name] = 1
				}
				if !reflect.DeepEqual(counts, want) {
					t.Errorf("%d-post batch recorded spans %v, want %v", n, counts, want)
				}
				if attrs["posts"] != fmt.Sprint(n) || attrs["accepted"] != fmt.Sprint(n) ||
					attrs["dropped"] != "0" || attrs["routing_candidates"] != fmt.Sprint(n*subs) {
					t.Errorf("%d-post ingest.batch attrs = %v, want posts=accepted=%d dropped=0 routing_candidates=%d", n, attrs, n, n*subs)
				}
			}
			// The spans stayed flat while every subscription did the work.
			if m := s.Metrics(); m.EmittedTotal != int64(subs*(1+wide)) {
				t.Errorf("emitted %d, want %d: the fan-out did not reach every subscription", m.EmittedTotal, subs*(1+wide))
			}
		})
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestTraceMalformedTraceparent: anything unparseable starts a fresh root —
// the request succeeds and is traced under a server-generated ID, never 4xx.
func TestTraceMalformedTraceparent(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	cases := []string{
		"",
		"garbage",
		"00-b9c7c989f97918e1-00f067aa0ba902b7-01",                 // short trace
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
	}
	for _, tp := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
		if tp != "" {
			req.Header.Set("traceparent", tp)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traceparent %q: status %d, want 200", tp, resp.StatusCode)
		}
		got := resp.Header.Get("X-Trace-Id")
		if _, ok := obs.ParseTraceID(got); !ok {
			t.Errorf("traceparent %q: X-Trace-Id %q is not a fresh trace id", tp, got)
		}
		if tp != "" && strings.Contains(strings.ToLower(tp), got) {
			t.Errorf("traceparent %q: server adopted the malformed trace id %q", tp, got)
		}
	}
}

// TestTraceClientRetrySameTrace: every retry attempt of one logical ingest
// carries the same traceparent, so the server-side trace survives transient
// failures instead of fragmenting per attempt.
func TestTraceClientRetrySameTrace(t *testing.T) {
	s := newServer(t, Config{})
	inner := Handler(s)
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/ingest" {
			mu.Lock()
			seen = append(seen, r.Header.Get("traceparent"))
			n := len(seen)
			mu.Unlock()
			if n == 1 {
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.Retry = &RetryPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond}
	ct := obs.NewTracer(16)
	ct.SetRetention(0, 1)
	root := ct.StartTrace("client.ingest")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := cl.Ingest(ctx, Post{ID: 1, Time: 0, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	root.End()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("ingest attempts = %d, want 2 (one failed, one retried)", len(seen))
	}
	if seen[0] == "" || seen[0] != seen[1] {
		t.Fatalf("traceparent differs across attempts: %q vs %q", seen[0], seen[1])
	}
	trace, _, ok := obs.ParseTraceparent(seen[0])
	if !ok || trace != root.TraceID() {
		t.Fatalf("attempt traceparent %q does not carry the client trace %s", seen[0], root.TraceID())
	}
}

// TestTraceSSEReconnectSameTrace: a dropped SSE connection reconnects under
// the same traceparent, and the resumed stream still annotates emissions
// with their originating ingest trace.
func TestTraceSSEReconnectSameTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	tracer.SetRetention(0, 1)
	reg.SetTracer(tracer)
	s := newServer(t, Config{Obs: reg})

	inner := Handler(s)
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream") {
			mu.Lock()
			seen = append(seen, r.Header.Get("traceparent"))
			n := len(seen)
			mu.Unlock()
			if n == 1 {
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.Retry = &RetryPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond}
	id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	ct := obs.NewTracer(16)
	ct.SetRetention(0, 1)
	ingest := ct.StartTrace("client.ingest")
	if _, err := cl.Ingest(obs.ContextWithSpan(context.Background(), ingest), Post{ID: 1, Time: 0, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	ingest.End()
	s.Flush()

	session := ct.StartTrace("client.stream")
	ctx := obs.ContextWithSpan(context.Background(), session)
	var emitted []obs.TraceID
	if err := cl.Stream(ctx, id, 0, func(ev StreamEvent) error {
		if ev.Emission != nil {
			emitted = append(emitted, ev.Trace)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	session.End()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("stream attempts = %d, want 2 (one dropped, one reconnect)", len(seen))
	}
	if seen[0] == "" || seen[0] != seen[1] {
		t.Fatalf("traceparent differs across reconnect: %q vs %q", seen[0], seen[1])
	}
	trace, _, ok := obs.ParseTraceparent(seen[1])
	if !ok || trace != session.TraceID() {
		t.Fatalf("reconnect traceparent %q does not carry the session trace %s", seen[1], session.TraceID())
	}
	if len(emitted) == 0 {
		t.Fatal("resumed stream delivered no emissions")
	}
	for _, tr := range emitted {
		if tr != ingest.TraceID() {
			t.Errorf("emission trace = %s, want the ingest trace %s", tr, ingest.TraceID())
		}
	}
}

// TestEmissionsByteIdenticalTracedVsUntraced: the trace sidecar never leaks
// into poll responses — the same workload against a traced and an untraced
// server yields byte-identical /emissions bodies.
func TestEmissionsByteIdenticalTracedVsUntraced(t *testing.T) {
	build := func(traced bool) *httptest.Server {
		cfg := Config{}
		if traced {
			cfg.Obs = obs.NewRegistry()
			tracer := obs.NewTracer(256)
			tracer.SetRetention(0, 1)
			cfg.Obs.SetTracer(tracer)
		}
		s := newServer(t, cfg)
		if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := ingestPost(s, Post{ID: int64(i + 1), Time: float64(i * 10), Text: fmt.Sprintf("obama update %d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(Handler(s))
		t.Cleanup(ts.Close)
		return ts
	}
	plain := getBody(t, build(false).URL+"/subscriptions/1/emissions?after=0")
	traced := getBody(t, build(true).URL+"/subscriptions/1/emissions?after=0")
	if plain != traced {
		t.Fatalf("emission bodies differ with tracing enabled:\nuntraced: %s\ntraced:   %s", plain, traced)
	}
	if !strings.Contains(plain, `"seq"`) {
		t.Fatalf("unexpected empty poll body: %s", plain)
	}
}

// TestGapCounterIncrements: every surface that reports a *GapError — plain
// poll and SSE — bumps mqdp_server_gaps_total.
func TestGapCounterIncrements(t *testing.T) {
	old := maxEmissionBuffer
	maxEmissionBuffer = 4
	defer func() { maxEmissionBuffer = old }()

	ts, s, _ := newTracedServer(t)
	cl := NewClient(ts.URL)
	id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := cl.Ingest(context.Background(), Post{ID: int64(i + 1), Time: float64(i * 10), Text: fmt.Sprintf("obama update %d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Plain poll from a stale cursor: gap headers, counter bumps once.
	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Gap-From") == "" || resp.Header.Get("X-First-Seq") == "" {
		t.Fatalf("stale poll did not report a gap (headers %v)", resp.Header)
	}
	if got := s.Metrics().Gaps; got != 1 {
		t.Fatalf("gaps after stale poll = %d, want 1", got)
	}

	// The typed client surfaces the same gap as *GapError.
	_, err = cl.Emissions(context.Background(), id, 0, 0)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("client poll error = %v, want *GapError", err)
	}
	if got := s.Metrics().Gaps; got != 2 {
		t.Fatalf("gaps after client poll = %d, want 2", got)
	}

	// SSE from the same stale cursor: a gap event, counted once more.
	s.Flush()
	sawGap := false
	if err := cl.Stream(context.Background(), id, 0, func(ev StreamEvent) error {
		if ev.Gap != nil {
			sawGap = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawGap {
		t.Fatal("stream from stale cursor delivered no gap event")
	}
	if got := s.Metrics().Gaps; got != 3 {
		t.Fatalf("gaps after SSE = %d, want 3", got)
	}
}
