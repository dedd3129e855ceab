package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getJSON decodes a GET response body into out and returns the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestEmissionsPollAfterTrim drives a subscription past the emission-buffer
// cap over HTTP and checks that cursor polls compute the right offset from
// the first *retained* Seq instead of scanning (or mis-addressing) the
// trimmed buffer.
func TestEmissionsPollAfterTrim(t *testing.T) {
	old := maxEmissionBuffer
	maxEmissionBuffer = 16
	defer func() { maxEmissionBuffer = old }()

	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/subscriptions", SubscriptionConfig{
		Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant",
	})
	var created map[string]int64
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	id := created["id"]

	// 50 matching posts → 50 emissions; the buffer retains seqs 35..50.
	batch := make([]Post, 50)
	for i := range batch {
		batch[i] = Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("obama update %d", i)}
	}
	resp = postJSON(t, ts.URL+"/ingest", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	poll := func(after int64, limit int) []Emission {
		t.Helper()
		url := fmt.Sprintf("%s/subscriptions/%d/emissions?after=%d", ts.URL, id, after)
		if limit > 0 {
			url += fmt.Sprintf("&limit=%d", limit)
		}
		var es []Emission
		if st := getJSON(t, url, &es); st != http.StatusOK {
			t.Fatalf("poll after=%d status %d", after, st)
		}
		return es
	}
	seqs := func(es []Emission) []int64 {
		out := make([]int64, len(es))
		for i, e := range es {
			out[i] = e.Seq
		}
		return out
	}

	all := poll(0, 0)
	if len(all) != 16 || all[0].Seq != 35 || all[15].Seq != 50 {
		t.Fatalf("retained window = %v, want seqs 35..50", seqs(all))
	}
	// Cursor in the middle of the retained window.
	if got := poll(40, 0); len(got) != 10 || got[0].Seq != 41 || got[9].Seq != 50 {
		t.Errorf("after=40 → %v, want 41..50", seqs(got))
	}
	// Cursor + limit.
	if got := poll(42, 3); len(got) != 3 || got[0].Seq != 43 || got[2].Seq != 45 {
		t.Errorf("after=42 limit=3 → %v, want 43..45", seqs(got))
	}
	// Cursor at and past the end.
	if got := poll(50, 0); len(got) != 0 {
		t.Errorf("after=50 → %v, want empty", seqs(got))
	}
	if got := poll(60, 0); len(got) != 0 {
		t.Errorf("after=60 → %v, want empty", seqs(got))
	}
	// A stale cursor pointing into the trimmed region yields the whole
	// retained window (the trimmed emissions are gone, not re-addressed)
	// AND announces the splice: X-Gap-From/X-First-Seq name the lost range
	// so the client knows seqs 11..34 are unrecoverable.
	if got := poll(10, 0); len(got) != 16 || got[0].Seq != 35 {
		t.Errorf("after=10 → %v, want 35..50", seqs(got))
	}
	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=10", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale poll status %d", resp.StatusCode)
	}
	if gf, fs := resp.Header.Get("X-Gap-From"), resp.Header.Get("X-First-Seq"); gf != "11" || fs != "35" {
		t.Errorf("stale poll gap headers = (X-Gap-From %q, X-First-Seq %q), want (11, 35)", gf, fs)
	}
	// An in-window cursor carries no gap headers.
	resp, err = http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=40", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gf := resp.Header.Get("X-Gap-From"); gf != "" {
		t.Errorf("in-window poll reported a gap: X-Gap-From %q", gf)
	}
}

// TestEvictedTextPath pins the deliver-side contract: a decision whose
// cached text was evicted is dropped and counted, never emitted blank; and
// decided posts release their cache entry immediately.
func TestEvictedTextPath(t *testing.T) {
	ts, core := newTestServer(t)
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 1000, Tau: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(core, Post{ID: 1, Time: 0, Text: "obama holds a presser"}); err != nil {
		t.Fatal(err)
	}
	// Simulate the race the old code hit silently: the text is gone by the
	// time the decision (forced here by flush) lands.
	sub, _ := core.lookup(id)
	sub.mu.Lock()
	delete(sub.texts, 1)
	sub.mu.Unlock()
	core.Flush()

	var es []Emission
	getJSON(t, fmt.Sprintf("%s/subscriptions/%d/emissions", ts.URL, id), &es)
	for _, e := range es {
		if e.Text == "" {
			t.Errorf("blank-text emission leaked: %+v", e)
		}
	}
	if len(es) != 0 {
		t.Errorf("emissions = %d, want 0 (only decision lost its text)", len(es))
	}
	var st SubscriptionStats
	getJSON(t, fmt.Sprintf("%s/subscriptions/%d/stats", ts.URL, id), &st)
	if st.TextMisses != 1 {
		t.Errorf("text_misses = %d, want 1", st.TextMisses)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.TextMisses != 1 {
		t.Errorf("metrics text_misses = %d, want 1", m.TextMisses)
	}
}

// TestTextCacheLifecycle checks that decided posts leave the cache at
// decision time and rejected ones at the gc horizon, so the map tracks the
// live window instead of idling at a fixed threshold.
func TestTextCacheLifecycle(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	// 500 matching posts 1s apart: most are rejected (within λ of the last
	// selection) and must still be evicted once past the horizon.
	for i := 0; i < 500; i++ {
		if err := ingestPost(s, Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("obama note %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := s.lookup(id)
	sub.mu.Lock()
	cached := len(sub.texts)
	sub.mu.Unlock()
	// Live window is λ+τ+1 = 11 seconds ≈ 11 posts plus slack.
	if cached > 20 {
		t.Errorf("text cache holds %d entries, want ≈ live window (≤ 20)", cached)
	}
	s.Flush()
	sub.mu.Lock()
	cached = len(sub.texts)
	sub.mu.Unlock()
	if cached != 0 {
		t.Errorf("text cache holds %d entries after flush, want 0", cached)
	}
}

// TestPartialBatchAccepted pins the POST /ingest error contract: a
// mid-batch failure reports how many posts landed so clients resume
// instead of double-ingesting.
func TestPartialBatchAccepted(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/ingest", []Post{
		{ID: 1, Time: 0, Text: "obama a"},
		{ID: 2, Time: 10, Text: "obama b"},
		{ID: 3, Time: 5, Text: "obama c"}, // out of order: rejected
		{ID: 4, Time: 20, Text: "obama d"},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("partial batch status %d, want 409", resp.StatusCode)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted != 2 || res.Error == "" {
		t.Errorf("partial batch result = %+v, want accepted=2 with error", res)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Ingested != 2 {
		t.Errorf("ingested = %d, want 2 (prefix only)", st.Ingested)
	}
	// The client resumes at posts[accepted] with the bad item fixed.
	resp = postJSON(t, ts.URL+"/ingest", []Post{
		{ID: 3, Time: 15, Text: "obama c"},
		{ID: 4, Time: 20, Text: "obama d"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d", resp.StatusCode)
	}
	_ = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Accepted != 2 {
		t.Errorf("resume accepted = %d, want 2", res.Accepted)
	}
}

// TestIngestAfterFlush pins the closed latch: flush ends the stream once,
// later ingests are rejected with 409, and a second flush is a no-op.
func TestIngestAfterFlush(t *testing.T) {
	ts, core := newTestServer(t)
	resp := postJSON(t, ts.URL+"/subscriptions", SubscriptionConfig{
		Topics: politicsTopics(), Lambda: 1000, Tau: 1000,
	})
	var created map[string]int64
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	id := created["id"]

	resp = postJSON(t, ts.URL+"/ingest", Post{ID: 1, Time: 0, Text: "obama speech"})
	resp.Body.Close()

	flush := func() int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/flush", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := flush(); st != http.StatusNoContent {
		t.Fatalf("flush status %d", st)
	}
	var es []Emission
	getJSON(t, fmt.Sprintf("%s/subscriptions/%d/emissions", ts.URL, id), &es)
	if len(es) != 1 {
		t.Fatalf("post-flush emissions = %d, want 1", len(es))
	}

	// Ingest after flush: 409 with the closed error and nothing accepted.
	resp = postJSON(t, ts.URL+"/ingest", Post{ID: 2, Time: 5, Text: "obama again"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("ingest-after-flush status %d, want 409", resp.StatusCode)
	}
	var res IngestResult
	_ = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Accepted != 0 {
		t.Errorf("ingest-after-flush accepted = %d, want 0", res.Accepted)
	}
	if !core.Closed() {
		t.Error("Closed() = false after flush")
	}

	// Second flush: no-op, no re-fired deadlines, emissions unchanged.
	if st := flush(); st != http.StatusNoContent {
		t.Errorf("second flush status %d", st)
	}
	getJSON(t, fmt.Sprintf("%s/subscriptions/%d/emissions", ts.URL, id), &es)
	if len(es) != 1 {
		t.Errorf("emissions after double flush = %d, want 1 (no duplicates)", len(es))
	}

	var h Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "flushed" || h.Ingested != 1 {
		t.Errorf("healthz after flush = %+v", h)
	}

	// Direct API: a second Flush and a late Ingest behave the same.
	core.Flush()
	if err := ingestPost(core, Post{ID: 3, Time: 9, Text: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Flush = %v, want ErrClosed", err)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	ts, core := newTestServer(t)
	var h Health
	if st := getJSON(t, ts.URL+"/healthz", &h); st != http.StatusOK {
		t.Fatalf("healthz status %d", st)
	}
	if h.Status != "ok" || h.Subscriptions != 0 {
		t.Errorf("healthz = %+v", h)
	}
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = ingestPost(core, Post{ID: 1, Time: 0, Text: "obama morning brief"})
	_ = ingestPost(core, Post{ID: 2, Time: 100, Text: "senate afternoon session"})
	core.Flush()

	var m Metrics
	if st := getJSON(t, ts.URL+"/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics status %d", st)
	}
	if m.Ingested != 2 || m.Subscriptions != 1 || !m.Flushed {
		t.Errorf("metrics = %+v", m)
	}
	if m.MatchedTotal != 2 || m.EmittedTotal != 2 {
		t.Errorf("metrics totals = %+v", m)
	}
	if len(m.Profiles) != 1 || m.Profiles[0].ID != id {
		t.Fatalf("metrics profiles = %+v", m.Profiles)
	}
	// Delay summary comes from stream.Summarize over the retained buffer:
	// both decisions fired within τ.
	d := m.Profiles[0].Delay
	if d.Count != 2 || d.Max > 5+1e-9 || d.Mean > d.Max || d.P95 > d.Max {
		t.Errorf("delay summary = %+v", d)
	}
	// Method guards.
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status %d", resp.StatusCode)
	}
}

// subscriptionEmissionsJSON renders every subscription's full emission
// buffer as JSON, keyed in id order.
func subscriptionEmissionsJSON(t *testing.T, s *Server, ids []int64) []byte {
	t.Helper()
	var buf []byte
	for _, id := range ids {
		es, err := s.Emissions(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(es)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return buf
}

// TestConcurrentIngestSubscribePoll hammers the sharded design from every
// direction at once; run under -race this locks in the locking discipline
// (registry RWMutex vs per-subscription mutexes).
func TestConcurrentIngestSubscribePoll(t *testing.T) {
	s := newServer(t, Config{})
	seedIDs := make([]int64, 8)
	for i := range seedIDs {
		id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 30, Tau: 5})
		if err != nil {
			t.Fatal(err)
		}
		seedIDs[i] = id
	}
	const posts = 3000
	var clock atomic.Int64
	var wg sync.WaitGroup
	// Two producers share a monotone clock; occasional ErrOutOfOrder from
	// interleaving is expected and ignored — order is enforced, not assumed.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts/2; i++ {
				tick := clock.Add(1)
				_ = ingestPost(s, Post{ID: tick, Time: float64(tick), Text: fmt.Sprintf("obama senate item %d", tick)})
			}
		}()
	}
	// Churning subscribers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0, Algorithm: "instant"})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := s.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Pollers over every read surface.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := seedIDs[(r+i)%len(seedIDs)]
				_, _ = s.Emissions(id, int64(i), 10)
				_ = s.Stats()
				_ = s.Metrics()
				_, _ = s.SubscriptionStats(id)
				_ = s.Health()
			}
		}(r)
	}
	wg.Wait()
	s.Flush()
	// Per-subscription invariant: seqs are contiguous from the first
	// retained emission.
	for _, id := range seedIDs {
		es, err := s.Emissions(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(es); i++ {
			if es[i].Seq != es[i-1].Seq+1 {
				t.Fatalf("subscription %d: seq gap %d → %d", id, es[i-1].Seq, es[i].Seq)
			}
		}
		for _, e := range es {
			if e.Text == "" {
				t.Fatalf("subscription %d: blank emission %+v", id, e)
			}
		}
	}
}

// TestShutdownMidIngest flushes the server while a client is streaming
// batches at it and verifies graceful shutdown under load: every batch is
// either fully applied (and counted by the client) or cut with a retryable
// 409 reporting the applied prefix — nothing partially vanishes, and the
// sum of client-side accepted counts equals the server's ingested total.
func TestShutdownMidIngest(t *testing.T) {
	ts, core := newTestServer(t)
	if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"}); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL)
	cl.Retry = &RetryPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond}

	var totalAccepted atomic.Int64
	var cutErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := int64(1)
		for batchIdx := 0; batchIdx < 100000; batchIdx++ {
			batch := make([]Post, 5)
			for i := range batch {
				batch[i] = Post{ID: next, Time: float64(next), Text: fmt.Sprintf("senate roll call %d", next)}
				next++
			}
			n, err := cl.Ingest(context.Background(), batch...)
			totalAccepted.Add(int64(n))
			if err != nil {
				cutErr = err
				return
			}
		}
	}()
	// Let some batches land, then shut the stream down underneath them.
	for core.Stats().Ingested < 50 {
		time.Sleep(time.Millisecond)
	}
	if err := cl.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	// The writer must have been cut by the shutdown, with the conflict
	// surfaced as a typed, call-annotated API error.
	if cutErr == nil {
		t.Fatal("writer finished every batch; flush never cut it")
	}
	var ae *APIError
	if !errors.As(cutErr, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("want 409 APIError from the cut batch, got %v", cutErr)
	}
	if !strings.Contains(cutErr.Error(), "POST /ingest") {
		t.Fatalf("cut error does not identify the call: %v", cutErr)
	}
	// Nothing partially vanished: what the client believes landed is
	// exactly what the server applied.
	if got, want := core.Stats().Ingested, totalAccepted.Load(); got != want {
		t.Fatalf("server ingested %d, client-side accepted sum %d", got, want)
	}
}
