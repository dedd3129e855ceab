package server

import (
	"bytes"
	"context"
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

// runWireE2E ingests the standard stream against the real handler and
// returns the JSON-marshaled emission streams per profile. The binary side
// goes through the Client (binary ingest frames, binary polls); with
// jsonWire the ingest and the polls are raw JSON requests that send no
// Accept header.
func runWireE2E(t *testing.T, jsonWire bool) []string {
	t.Helper()
	ts := httptest.NewServer(Handler(newServer(t, Config{DupDistance: 3, DupWindow: 64})))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{Seed: 1}
	ctx := context.Background()
	var ids []int64
	for _, cfg := range []SubscriptionConfig{
		{Topics: politicsTopics(), Lambda: 60, Tau: 10, Algorithm: "streamscan+"},
		{Topics: politicsTopics(), Lambda: 30, Tau: 0, Algorithm: "instant"},
	} {
		id, err := c.Subscribe(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if jsonWire {
		resp := postJSON(t, ts.URL+"/ingest", wireE2EPosts())
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("JSON ingest = %d", resp.StatusCode)
		}
	} else if _, err := c.Ingest(ctx, wireE2EPosts()...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var streams []string
	for _, id := range ids {
		var es []Emission
		if jsonWire {
			if st := getJSON(t, fmt.Sprintf("%s/subscriptions/%d/emissions?after=0", ts.URL, id), &es); st != http.StatusOK {
				t.Fatalf("JSON poll = %d", st)
			}
		} else {
			var err error
			if es, err = c.Emissions(ctx, id, 0, 0); err != nil {
				t.Fatal(err)
			}
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
// binary ingest and binary polls must observe byte-identical emission
// streams to JSON ingest and JSON polls over the same stream.
func TestWireBinaryEmissionsIdentical(t *testing.T) {
	jsonStreams := runWireE2E(t, true)
	binStreams := runWireE2E(t, false)
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

// TestWireBinaryIdempotentReplay reruns the exactly-once contract over
// binary frames: resending a batch with the same idempotency key must
// replay the recorded outcome, not double-ingest.
func TestWireBinaryIdempotentReplay(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	id, err := c.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
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
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	es, err := c.Emissions(context.Background(), id, 0, 0)
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
