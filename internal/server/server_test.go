package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mqdp/internal/match"
	"mqdp/internal/obs"
)

func politicsTopics() []match.Topic {
	return []match.Topic{
		{Name: "obama", Keywords: []match.Keyword{{Text: "obama", Weight: 1}, {Text: "president", Weight: 0.5}}},
		{Name: "senate", Keywords: []match.Keyword{{Text: "senate", Weight: 1}, {Text: "congress", Weight: 0.5}}},
	}
}

func TestSubscribeIngestEmissions(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 10})
	if err != nil {
		t.Fatal(err)
	}
	posts := []Post{
		{ID: 1, Time: 0, Text: "obama speaks tonight"},
		{ID: 2, Time: 5, Text: "irrelevant chatter about lunch"},
		{ID: 3, Time: 20, Text: "senate votes on the bill"},
		{ID: 4, Time: 30, Text: "obama responds to the senate"},
		{ID: 5, Time: 200, Text: "president heads to camp david"},
	}
	for _, p := range posts {
		if err := ingestPost(s, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	es, err := s.Emissions(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) == 0 {
		t.Fatal("no emissions")
	}
	// Every emission carries the original text and topic names, and seqs
	// increase.
	seen := map[int64]bool{}
	for i, e := range es {
		if e.Seq != int64(i+1) {
			t.Errorf("emission %d has seq %d", i, e.Seq)
		}
		if e.Text == "" || len(e.Topics) == 0 {
			t.Errorf("emission %+v missing text/topics", e)
		}
		if seen[e.PostID] {
			t.Errorf("post %d emitted twice", e.PostID)
		}
		seen[e.PostID] = true
		if d := e.EmitAt - e.Time; d < 0 || d > 10+1e-9 {
			t.Errorf("emission delay %v outside τ", d)
		}
	}
	// Post 5 is >λ from everything earlier and must appear.
	if !seen[5] {
		t.Error("isolated post 5 missing from emissions")
	}
	// The irrelevant post never matches.
	if seen[2] {
		t.Error("non-matching post emitted")
	}
	// Cursor-based fetch.
	tail, err := s.Emissions(id, es[0].Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(es)-1 {
		t.Errorf("after-cursor fetch returned %d, want %d", len(tail), len(es)-1)
	}
	limited, err := s.Emissions(id, 0, 1)
	if err != nil || len(limited) != 1 {
		t.Errorf("limit fetch = %v, %v", limited, err)
	}
}

func TestPerSubscriptionIsolation(t *testing.T) {
	s := newServer(t, Config{})
	obamaID, err := s.Subscribe(SubscriptionConfig{
		Topics: politicsTopics()[:1], Lambda: 1000, Tau: 0, Algorithm: "instant",
	})
	if err != nil {
		t.Fatal(err)
	}
	senateID, err := s.Subscribe(SubscriptionConfig{
		Topics: politicsTopics()[1:], Lambda: 1000, Tau: 0, Algorithm: "instant",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = ingestPost(s, Post{ID: 1, Time: 0, Text: "obama press conference"})
	_ = ingestPost(s, Post{ID: 2, Time: 1, Text: "senate hearing today"})
	s.Flush()
	obamaEs, _ := s.Emissions(obamaID, 0, 0)
	senateEs, _ := s.Emissions(senateID, 0, 0)
	if len(obamaEs) != 1 || obamaEs[0].PostID != 1 {
		t.Errorf("obama subscription got %+v", obamaEs)
	}
	if len(senateEs) != 1 || senateEs[0].PostID != 2 {
		t.Errorf("senate subscription got %+v", senateEs)
	}
}

func TestDeduplicationBeforeMatching(t *testing.T) {
	s := newServer(t, Config{DupWindow: 128}) // exact-duplicate filtering
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	_ = ingestPost(s, Post{ID: 1, Time: 0, Text: "obama wins again"})
	_ = ingestPost(s, Post{ID: 2, Time: 1, Text: "obama wins again"}) // dropped
	s.Flush()
	st := s.Stats()
	if st.Ingested != 2 || st.DroppedDups != 1 {
		t.Errorf("stats = %+v", st)
	}
	es, _ := s.Emissions(id, 0, 0)
	if len(es) != 1 {
		t.Errorf("emissions = %d, want 1 (duplicate dropped before matching)", len(es))
	}
}

func TestIngestOrderEnforced(t *testing.T) {
	s := newServer(t, Config{})
	_ = ingestPost(s, Post{ID: 1, Time: 10, Text: "x"})
	if err := ingestPost(s, Post{ID: 2, Time: 5, Text: "y"}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order ingest error = %v", err)
	}
}

func TestSubscribeValidation(t *testing.T) {
	s := newServer(t, Config{})
	if _, err := s.Subscribe(SubscriptionConfig{}); err == nil {
		t.Error("subscription without topics accepted")
	}
	if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: -1}); err == nil {
		t.Error("negative lambda accepted")
	}
	if err := s.Unsubscribe(99); !errors.Is(err, ErrNoSuchSubscription) {
		t.Errorf("unsubscribe missing = %v", err)
	}
	if _, err := s.Emissions(99, 0, 0); !errors.Is(err, ErrNoSuchSubscription) {
		t.Errorf("emissions missing = %v", err)
	}
	if _, err := s.SubscriptionStats(99); !errors.Is(err, ErrNoSuchSubscription) {
		t.Errorf("stats missing = %v", err)
	}
}

func TestConcurrentReadsDuringIngest(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 30, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = ingestPost(s, Post{ID: int64(i), Time: float64(i), Text: fmt.Sprintf("obama item %d", i)})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_, _ = s.Emissions(id, 0, 10)
				_ = s.Stats()
				_, _ = s.SubscriptionStats(id)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Ingested != 2000 {
		t.Errorf("ingested = %d", st.Ingested)
	}
}

// --- HTTP layer ---

// newServer builds a Server from cfg, failing the test on error.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestPost feeds one post through IngestBatch, the server's only ingest
// entry.
func ingestPost(s *Server, p Post) error {
	_, _, err := s.IngestBatch(context.Background(), []Post{p}, "")
	return err
}

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return newTestServerWith(t, Config{})
}

// newTestServerWith serves a Server built from cfg on a loopback listener.
func newTestServerWith(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	core := newServer(t, cfg)
	ts := httptest.NewServer(Handler(core))
	t.Cleanup(ts.Close)
	return ts, core
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Subscribe.
	resp := postJSON(t, ts.URL+"/subscriptions", SubscriptionConfig{
		Topics: politicsTopics(), Lambda: 60, Tau: 0, Algorithm: "instant",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	var created map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := created["id"]

	// Ingest a batch.
	resp = postJSON(t, ts.URL+"/ingest", []Post{
		{ID: 1, Time: 0, Text: "obama statement"},
		{ID: 2, Time: 100, Text: "senate debate"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Single-object ingest.
	resp = postJSON(t, ts.URL+"/ingest", Post{ID: 3, Time: 200, Text: "president tours midwest"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Emissions.
	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var es []Emission
	if err := json.NewDecoder(resp.Body).Decode(&es); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(es) != 3 {
		t.Fatalf("emissions = %d, want 3 (instant, all novel)", len(es))
	}

	// Per-subscription stats.
	resp, err = http.Get(fmt.Sprintf("%s/subscriptions/%d/stats", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var st SubscriptionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Matched != 3 || st.Emitted != 3 {
		t.Errorf("sub stats = %+v", st)
	}

	// Service stats.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Ingested != 3 || stats.Subscriptions != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// Unsubscribe.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/subscriptions/%d", ts.URL, id), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("unsubscribe status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, core := newTestServer(t)
	if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"}); err != nil { // id 1
		t.Fatal(err)
	}
	cases := []struct {
		method, path string
		body         string
		wantStatus   int
	}{
		{"GET", "/subscriptions", "", http.StatusMethodNotAllowed},
		{"POST", "/subscriptions", "{not json", http.StatusBadRequest},
		{"POST", "/subscriptions", `{"topics":[]}`, http.StatusBadRequest},
		{"GET", "/subscriptions/abc/emissions", "", http.StatusBadRequest},
		{"GET", "/subscriptions/42/emissions?after=1O", "", http.StatusBadRequest},
		{"GET", "/subscriptions/42/emissions?limit=ten", "", http.StatusBadRequest},
		{"GET", "/subscriptions/42/emissions", "", http.StatusNotFound},
		{"GET", "/subscriptions/42/stats", "", http.StatusNotFound},
		{"DELETE", "/subscriptions/42", "", http.StatusNotFound},
		{"POST", "/ingest", "{not json", http.StatusBadRequest},
		{"GET", "/ingest", "", http.StatusMethodNotAllowed},
		{"GET", "/flush", "", http.StatusMethodNotAllowed},
		{"POST", "/stats", "", http.StatusMethodNotAllowed},
		{"GET", "/subscriptions/1/unknown", "", http.StatusNotFound},
		// Resume cursors are seqs: negative or malformed ones are refused on
		// both the poll and the push endpoint, never read as a gap or as 0.
		{"GET", "/subscriptions/1/emissions?after=-1", "", http.StatusBadRequest},
		{"GET", "/subscriptions/1/emissions?after=-7&wait=1ms", "", http.StatusBadRequest},
		{"GET", "/subscriptions/1/stream?after=-1", "", http.StatusBadRequest},
		{"GET", "/subscriptions/1/stream?after=1O", "", http.StatusBadRequest},
	}
	gaps := core.gaps.Value()
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s → %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
	if got := core.gaps.Value(); got != gaps {
		t.Errorf("refused cursors counted %d gaps", got-gaps)
	}
	// Out-of-order ingest maps to 409.
	_ = postJSON(t, ts.URL+"/ingest", Post{ID: 1, Time: 100, Text: "x"})
	resp := postJSON(t, ts.URL+"/ingest", Post{ID: 2, Time: 50, Text: "y"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("out-of-order ingest status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPFlush(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/subscriptions", SubscriptionConfig{
		Topics: politicsTopics(), Lambda: 1000, Tau: 1000,
	})
	var created map[string]int64
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	id := created["id"]
	resp = postJSON(t, ts.URL+"/ingest", Post{ID: 1, Time: 0, Text: "obama speech"})
	resp.Body.Close()
	// Nothing emitted yet: big τ holds the decision.
	resp, _ = http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions", ts.URL, id))
	var es []Emission
	_ = json.NewDecoder(resp.Body).Decode(&es)
	resp.Body.Close()
	if len(es) != 0 {
		t.Fatalf("premature emissions: %+v", es)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/flush", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, _ = http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions", ts.URL, id))
	_ = json.NewDecoder(resp.Body).Decode(&es)
	resp.Body.Close()
	if len(es) != 1 {
		t.Errorf("post-flush emissions = %d, want 1", len(es))
	}
}

// newRand is a test/bench helper mirroring the experiments package.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDigestEndpoint(t *testing.T) {
	ts, core := newTestServer(t)
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	_ = ingestPost(core, Post{ID: 1, Time: 0, Text: "obama statement on budget"})
	_ = ingestPost(core, Post{ID: 2, Time: 3700, Text: "senate session opens"})

	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/digest", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "obama statement") || !strings.Contains(text, "01:01:40") {
		t.Errorf("text digest missing content:\n%s", text)
	}
	resp, err = http.Get(fmt.Sprintf("%s/subscriptions/%d/digest?format=md", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "| when | topics | post |") {
		t.Errorf("markdown digest malformed:\n%s", body)
	}
	resp, err = http.Get(ts.URL + "/subscriptions/99/digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing-subscription digest status %d", resp.StatusCode)
	}
}

func TestServerDigestMethod(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	_ = ingestPost(s, Post{ID: 1, Time: 0, Text: "obama and senate together"})
	d, err := s.Digest(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 1 || d.TopicCounts["obama"] != 1 || d.TopicCounts["senate"] != 1 {
		t.Errorf("digest = %+v", d)
	}
}

// TestEmissionTrimAmortised checks that trimming a full emission buffer
// costs amortised O(1) per emission: once the buffer (and its trace
// sidecar) holds maxEmissionBuffer emissions, the bytes allocated per
// emitting post stay within a small constant of the below-cap cost
// instead of re-copying the whole buffer on every emission.
func TestEmissionTrimAmortised(t *testing.T) {
	old := maxEmissionBuffer
	maxEmissionBuffer = 1024
	defer func() { maxEmissionBuffer = old }()
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.lookup(id)
	sub.mu.Lock()
	sub.emTrace = []obs.TraceID{} // keep the sidecar from the first emission
	sub.mu.Unlock()
	const n = 6 * 1024
	posts := make([][]Post, n)
	for i := range posts {
		posts[i] = []Post{{ID: int64(i + 1), Time: float64(i), Text: "obama update"}}
	}
	bytesPerPost := func(from, to int) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range posts[from:to] {
			if _, _, err := s.IngestBatch(context.Background(), p, ""); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(to-from)
	}
	below := bytesPerPost(0, 1024)
	bytesPerPost(1024, 2048) // cross the cap
	full := bytesPerPost(2048, n)
	sub.mu.Lock()
	first, kept, traces := sub.emissions[0].Seq, len(sub.emissions), len(sub.emTrace)
	sub.mu.Unlock()
	if kept != 1024 || traces != 1024 || first != n-1023 {
		t.Fatalf("retained %d emissions (%d traces) from seq %d, want 1024 from %d", kept, traces, first, n-1023)
	}
	if full > 2*below+1024 {
		t.Errorf("full buffer: %.0f B per emitting post, below cap %.0f B", full, below)
	}
}
