package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mqdp/internal/wire"
)

// wireE2EPosts is a deterministic stream that produces emissions on the
// politics topics across both subscription algorithms.
func wireE2EPosts() []Post {
	return []Post{
		{ID: 1, Time: 0, Text: "obama speaks tonight"},
		{ID: 2, Time: 5, Text: "irrelevant chatter about lunch"},
		{ID: 3, Time: 20, Text: "senate votes on the bill"},
		{ID: 4, Time: 21, Text: "senate votes on the bill"},
		{ID: 5, Time: 30, Text: "obama responds to the senate"},
		{ID: 6, Time: 200, Text: "president heads to camp david"},
		{ID: 7, Time: 260, Text: "congress debates the budget"},
		{ID: 8, Time: 300, Text: "president signs the bill"},
	}
}

// legacyServer wraps the real Handler as a server that predates the binary
// wire and push delivery: binary-framed ingest gets 415, binary Accept
// negotiation is ignored, and the SSE endpoint answers 501 — the signals
// the Client's JSON latch and long-poll fallback exist for.
func legacyServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case wire.IsBinary(r.Header.Get("Content-Type")):
			http.Error(w, "unsupported media type", http.StatusUnsupportedMediaType)
		case strings.HasSuffix(r.URL.Path, "/stream"):
			http.Error(w, "not implemented", http.StatusNotImplemented)
		default:
			r.Header.Del("Accept")
			h.ServeHTTP(w, r)
		}
	})
}

// runWireE2E ingests the standard stream through a client (binary by
// default, JSON-pinned when jsonClient) against the real handler wrapped by
// serve (nil = as is) and returns the JSON-marshaled emission streams per
// profile.
func runWireE2E(t *testing.T, serve func(http.Handler) http.Handler, jsonClient bool) []string {
	t.Helper()
	h := Handler(newServer(t, Config{DupDistance: 3, DupWindow: 64}))
	if serve != nil {
		h = serve(h)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{Seed: 1}
	c.DisableBinaryWire = jsonClient
	var ids []int64
	for _, cfg := range []SubscriptionConfig{
		{Topics: politicsTopics(), Lambda: 60, Tau: 10, Algorithm: "streamscan+"},
		{Topics: politicsTopics(), Lambda: 30, Tau: 0, Algorithm: "instant"},
	} {
		id, err := c.Subscribe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Ingest(wireE2EPosts()...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var streams []string
	for _, id := range ids {
		es, err := c.Emissions(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(es)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, string(blob))
	}
	return streams
}

// TestWireBinaryEmissionsIdentical is the format-equivalence contract:
// a client negotiated to binary frames must observe byte-identical
// emission streams to a JSON-only client over the same ingest.
func TestWireBinaryEmissionsIdentical(t *testing.T) {
	jsonStreams := runWireE2E(t, nil, true)
	binStreams := runWireE2E(t, nil, false)
	if len(jsonStreams) != len(binStreams) {
		t.Fatalf("profile counts differ: %d vs %d", len(jsonStreams), len(binStreams))
	}
	for i := range jsonStreams {
		if jsonStreams[i] == "" || jsonStreams[i] == "null" {
			t.Fatalf("profile %d emitted nothing", i)
		}
		if jsonStreams[i] != binStreams[i] {
			t.Errorf("profile %d emissions differ:\nJSON:   %s\nbinary: %s", i, jsonStreams[i], binStreams[i])
		}
	}
}

// TestWireClient415Fallback points a binary-preferring client at a server
// without the binary surface: the first ingest must transparently
// fall back to JSON (and latch, so later calls skip the binary attempt)
// without losing any posts.
func TestWireClient415Fallback(t *testing.T) {
	streams := runWireE2E(t, legacyServer, false)
	want := runWireE2E(t, nil, true)
	for i := range streams {
		if streams[i] != want[i] {
			t.Errorf("profile %d emissions after 415 fallback differ:\n%s\nwant %s", i, streams[i], want[i])
		}
	}
}

// TestWireClient415Latches checks the fallback is remembered: after one
// 415 the client stops sending binary frames entirely.
func TestWireClient415Latches(t *testing.T) {
	var contentTypes []string
	inner := legacyServer(Handler(newServer(t, Config{})))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			contentTypes = append(contentTypes, r.Header.Get("Content-Type"))
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	if _, err := c.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 0}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := c.Ingest(Post{ID: i, Time: float64(i), Text: "obama speaks"}); err != nil {
			t.Fatal(err)
		}
	}
	// First call: binary attempt (415) then JSON retry. Later calls: JSON only.
	want := []string{wire.ContentTypeBinary, wire.ContentTypeJSON, wire.ContentTypeJSON, wire.ContentTypeJSON}
	if len(contentTypes) != len(want) {
		t.Fatalf("ingest content types = %v, want %v", contentTypes, want)
	}
	for i := range want {
		if contentTypes[i] != want[i] {
			t.Errorf("request %d content type %q, want %q", i, contentTypes[i], want[i])
		}
	}
}

// TestWireBinaryIdempotentReplay reruns the exactly-once contract over
// binary frames: resending a batch with the same idempotency key must
// replay the recorded outcome, not double-ingest.
func TestWireBinaryIdempotentReplay(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	id, err := c.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	posts := []Post{{ID: 1, Time: 1, Text: "obama speaks"}, {ID: 2, Time: 2, Text: "senate votes"}}
	res1, got, err := c.doIngest(t.Context(), posts, "replay-key-1")
	if err != nil || !got {
		t.Fatalf("first send: got=%v err=%v", got, err)
	}
	res2, got, err := c.doIngest(t.Context(), posts, "replay-key-1")
	if err != nil || !got {
		t.Fatalf("replay: got=%v err=%v", got, err)
	}
	if res1.Accepted != 2 || res2.Accepted != 2 {
		t.Fatalf("accepted %d then %d, want 2 and 2", res1.Accepted, res2.Accepted)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	es, err := c.Emissions(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("replay double-ingested: %d emissions, want 2", len(es))
	}
}

// repeatReader yields its byte forever.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestWireIngestRejectsGarbage covers the server-side decode error mapping in
// both wire formats and on the subscribe body: corrupt input is a 400,
// oversized input (a frame declaring, or a JSON body carrying, more than
// wire.MaxFramePayload) a 413.
func TestWireIngestRejectsGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	// One byte over the cap, so the whole body is written before the
	// server gives up on it.
	oversizedJSON := func() io.Reader { return io.LimitReader(repeatReader(' '), wire.MaxFramePayload+1) }
	for _, tc := range []struct {
		name, path, contentType string
		body                    io.Reader
		want                    int
	}{
		{"binary bad magic", "/ingest", wire.ContentTypeBinary, strings.NewReader("{}"), http.StatusBadRequest},
		{"binary oversized frame", "/ingest", wire.ContentTypeBinary,
			bytes.NewReader([]byte{0x8D, 0x51, 1, 0, 0xff, 0xff, 0xff, 0x7f}), http.StatusRequestEntityTooLarge},
		{"JSON corrupt", "/ingest", wire.ContentTypeJSON, strings.NewReader("{not json"), http.StatusBadRequest},
		{"JSON oversized", "/ingest", wire.ContentTypeJSON, oversizedJSON(), http.StatusRequestEntityTooLarge},
		{"subscribe corrupt", "/subscriptions", wire.ContentTypeJSON, strings.NewReader("{not json"), http.StatusBadRequest},
		{"subscribe oversized", "/subscriptions", wire.ContentTypeJSON, oversizedJSON(), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+tc.path, tc.contentType, tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s → %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestIngestJSONDecodeAllocs pins the pooled JSON ingest path: steady
// state decode of a warm batch must reuse the scratch body and batch
// slices, costing only the per-post JSON token allocations — not a fresh
// buffer or slice per request.
func TestIngestJSONDecodeAllocs(t *testing.T) {
	const n = 64
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%d,"time":%d,"text":"warm pool decode"}`, i+1, i+1)
	}
	sb.WriteByte(']')
	body := []byte(sb.String())

	// Warm the pool so steady-state measurements see reused scratch.
	for i := 0; i < 4; i++ {
		_, free, err := decodeIngestBody(bytes.NewReader(body), false)
		if err != nil {
			t.Fatal(err)
		}
		free()
	}
	allocs := testing.AllocsPerRun(200, func() {
		batch, free, err := decodeIngestBody(bytes.NewReader(body), false)
		if err != nil || len(batch) != n {
			t.Fatalf("decode: %d posts, %v", len(batch), err)
		}
		free()
	})
	// Per run: one string per post text plus a handful of fixed-cost
	// allocations inside encoding/json; the scratch buffers themselves
	// must not count (≥1 extra alloc/post would put this over 2n).
	if allocs > float64(2*n) {
		t.Errorf("JSON ingest decode = %.1f allocs for %d posts, want ≤ %d", allocs, n, 2*n)
	}
}

// TestIngestBinaryDecodeAllocs pins the tentpole acceptance bound: ≤ 2
// heap allocations per post on the binary ingest decode path.
func TestIngestBinaryDecodeAllocs(t *testing.T) {
	const n = 256
	posts := make([]wire.StreamPost, n)
	for i := range posts {
		posts[i] = wire.StreamPost{ID: int64(i + 1), Time: float64(i), Text: "steady state binary decode body"}
	}
	enc := wire.GetEncoder()
	frame := append([]byte(nil), enc.EncodeStreamPosts(posts, -1)...)
	wire.PutEncoder(enc)
	for i := 0; i < 4; i++ {
		_, free, err := decodeIngestBody(bytes.NewReader(frame), true)
		if err != nil {
			t.Fatal(err)
		}
		free()
	}
	allocs := testing.AllocsPerRun(200, func() {
		batch, free, err := decodeIngestBody(bytes.NewReader(frame), true)
		if err != nil || len(batch) != n {
			t.Fatalf("decode: %d posts, %v", len(batch), err)
		}
		free()
	})
	if perPost := allocs / n; perPost > 2 {
		t.Errorf("binary ingest decode = %.2f allocs/post, want ≤ 2", perPost)
	}
}
