package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestClientEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL + "/") // trailing slash is normalized

	id, err := c.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(context.Background(),
		Post{ID: 1, Time: 0, Text: "obama statement"},
		Post{ID: 2, Time: 100, Text: "senate debate"},
	); err != nil {
		t.Fatal(err)
	}
	es, err := c.Emissions(context.Background(), id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("emissions = %d, want 2", len(es))
	}
	if es[0].PostID != 1 || es[0].Topics[0] != "obama" {
		t.Errorf("first emission = %+v", es[0])
	}
	// Cursor + limit.
	es, err = c.Emissions(context.Background(), id, es[0].Seq, 1)
	if err != nil || len(es) != 1 || es[0].PostID != 2 {
		t.Errorf("cursor fetch = %+v, %v", es, err)
	}
	st, err := c.Stats(context.Background())
	if err != nil || st.Ingested != 2 || st.Subscriptions != 1 {
		t.Errorf("stats = %+v, %v", st, err)
	}
	ss, err := c.SubscriptionStats(context.Background(), id)
	if err != nil || ss.Matched != 2 {
		t.Errorf("sub stats = %+v, %v", ss, err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Emissions(context.Background(), id, 0, 0); StatusCode(err) != http.StatusNotFound {
		t.Errorf("post-unsubscribe fetch error = %v (status %d), want 404", err, StatusCode(err))
	}
}

func TestClientErrorSurfacing(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Subscribe(context.Background(), SubscriptionConfig{}); err == nil {
		t.Error("bad subscription accepted")
	} else if StatusCode(err) != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", StatusCode(err))
	}
	if _, err := c.Ingest(context.Background(), Post{ID: 1, Time: 100, Text: "x"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Ingest(context.Background(), Post{ID: 2, Time: 50, Text: "y"})
	if StatusCode(err) != http.StatusConflict {
		t.Errorf("out-of-order status = %d, want 409", StatusCode(err))
	}
	if StatusCode(nil) != 0 {
		t.Error("StatusCode(nil) != 0")
	}
}

func TestClientIngestAccepted(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	n, err := c.Ingest(context.Background(),
		Post{ID: 1, Time: 0, Text: "obama a"},
		Post{ID: 2, Time: 10, Text: "obama b"},
	)
	if err != nil || n != 2 {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	// Mid-batch failure surfaces the accepted prefix alongside the error.
	n, err = c.Ingest(context.Background(),
		Post{ID: 3, Time: 20, Text: "obama c"},
		Post{ID: 4, Time: 5, Text: "obama d"}, // out of order
		Post{ID: 5, Time: 30, Text: "obama e"},
	)
	if StatusCode(err) != http.StatusConflict {
		t.Fatalf("partial batch error = %v, want 409", err)
	}
	if n != 1 {
		t.Errorf("partial batch accepted = %d, want 1", n)
	}
	// Metrics and health are reachable through the client too.
	m, err := c.Metrics(context.Background())
	if err != nil || m.Ingested != 3 {
		t.Errorf("metrics = %+v, %v", m, err)
	}
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Errorf("health = %+v, %v", h, err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(context.Background(), Post{ID: 6, Time: 40, Text: "late"}); StatusCode(err) != http.StatusConflict {
		t.Errorf("ingest-after-flush error = %v, want 409", err)
	}
	if h, _ := c.Health(context.Background()); h.Status != "flushed" {
		t.Errorf("health after flush = %+v", h)
	}
}

func TestClientConnectionError(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	if _, err := c.Stats(context.Background()); err == nil {
		t.Error("dead endpoint succeeded")
	}
}

// TestClientAPIErrorTyped pins the typed-error contract: a non-2xx
// response surfaces as an *APIError wrapped with the call's method and
// path, matchable with errors.As / errors.Is through the %w chain.
func TestClientAPIErrorTyped(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)

	_, err := c.Emissions(context.Background(), 999, 0, 0)
	if err == nil {
		t.Fatal("want error for unknown subscription")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *APIError: %v", err)
	}
	if ae.Status != http.StatusNotFound {
		t.Errorf("status = %d, want 404", ae.Status)
	}
	if ae.Body == "" {
		t.Error("APIError.Body is empty")
	}
	if !strings.Contains(err.Error(), "GET /subscriptions/999/emissions") {
		t.Errorf("error does not identify the call: %v", err)
	}
	if !strings.Contains(err.Error(), "status 404") {
		t.Errorf("error does not carry the status: %v", err)
	}
	if StatusCode(err) != http.StatusNotFound {
		t.Errorf("StatusCode(err) = %d, want 404", StatusCode(err))
	}
	if _, ok := ae.RetryAfter(); ok {
		t.Error("404 reported a Retry-After it never had")
	}
}

// TestClientDefaultTimeout verifies the zero-value client gets a bounded
// HTTP client rather than the timeout-less http.DefaultClient.
func TestClientDefaultTimeout(t *testing.T) {
	c := NewClient("http://example.invalid")
	if got := c.httpClient().Timeout; got <= 0 {
		t.Fatalf("default client timeout = %v, want > 0", got)
	}
	override := &http.Client{Timeout: time.Second}
	c.HTTPClient = override
	if c.httpClient() != override {
		t.Fatal("explicit HTTPClient not honored")
	}
}

// TestClientContextVariants verifies the client methods honor caller
// cancellation.
func TestClientContextVariants(t *testing.T) {
	ts, core := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ingest(ctx, Post{ID: 1, Time: 1, Text: "obama live"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest with canceled ctx: %v", err)
	}
	if _, err := c.Emissions(ctx, 1, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Emissions with canceled ctx: %v", err)
	}
	if _, err := c.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats with canceled ctx: %v", err)
	}
	// Nothing reached the server through the canceled context.
	if got := core.Stats().Ingested; got != 0 {
		t.Fatalf("canceled ingest landed %d posts", got)
	}
	if _, err := c.Ingest(context.Background(), Post{ID: 1, Time: 1, Text: "obama live"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil || st.Ingested != 1 {
		t.Fatalf("Stats = (%+v, %v)", st, err)
	}
}

// TestClientRetryJitterPerClient: two default clients draw different
// retry delays, so a fleet whose requests fail together does not retry
// in lockstep.
func TestClientRetryJitterPerClient(t *testing.T) {
	delays := func() []time.Duration {
		c := NewClient("http://localhost")
		c.Retry = &RetryPolicy{}
		bo := c.backoff(1) // each fresh client's first logical call
		out := make([]time.Duration, 5)
		for i := range out {
			out[i] = bo.Next()
		}
		return out
	}
	if a, b := delays(), delays(); slices.Equal(a, b) {
		t.Fatalf("two clients drew the same retry delays %v", a)
	}
}

// TestStreamReconnectBackoffResets: a stream whose every connection
// delivers an event and then drops reconnects after the base delay each
// time, not after a delay that has grown toward BackoffCap.
func TestStreamReconnectBackoffResets(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		after, _ := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
		w.Header().Set("Content-Type", "text/event-stream")
		// One emission, then the handler returns: the connection ends
		// without an end event, which the client treats as a drop.
		fmt.Fprintf(w, "event: emission\ndata: {\"seq\":%d}\n\n", after+1)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.Retry = &RetryPolicy{BackoffBase: 10 * time.Millisecond}

	const events = 16
	enough := errors.New("enough events")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := int64(0)
	start := time.Now()
	err := cl.Stream(ctx, 1, 0, func(ev StreamEvent) error {
		if ev.Emission == nil {
			return nil
		}
		if n++; ev.Emission.Seq != n {
			t.Errorf("event %d has seq %d", n, ev.Emission.Seq)
		}
		if n == events {
			return enough
		}
		return nil
	})
	if !errors.Is(err, enough) {
		t.Fatalf("Stream = %v after %d events", err, n)
	}
	// 15 reconnects at the 10ms base take ~150ms; a delay that keeps
	// growing toward the 1s default cap takes several seconds.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("%d events over reconnecting connections took %v", events, elapsed)
	}
}
