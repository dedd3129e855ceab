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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mqdp/internal/obs"
	"mqdp/internal/resilience"
	"mqdp/internal/wire"
)

// defaultHTTPClient backs clients whose HTTPClient is nil. Unlike
// http.DefaultClient it carries a timeout, so a wedged server (or a
// blackholed network) fails the call instead of hanging it forever.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// clientSeq distinguishes idempotency-key namespaces between clients in
// the same process.
var clientSeq atomic.Int64

// Client is a typed HTTP client for a running mqdp-server. The zero
// value (plus BaseURL) works; Retry opts into fault tolerance. Ingest
// batches travel as binary stream-post frames, and emission and top-k
// polls ask for binary frames via Accept; the other endpoints speak JSON.
// Every call takes a context first.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a shared client with a 30s timeout.
	HTTPClient *http.Client
	// Retry, when non-nil, makes calls fault tolerant: idempotent
	// requests are retried with decorrelated-jitter backoff, Retry-After
	// headers are honored, and ingest batches resume exactly-once via
	// idempotency keys.
	Retry *RetryPolicy

	prefixOnce sync.Once
	prefix     string       // idempotency-key namespace
	jitterSeed int64        // per-client backoff seed, drawn with prefix
	calls      atomic.Int64 // per-client logical call counter
}

// RetryPolicy configures Client retries. The zero value of each field
// selects a sane default, so &RetryPolicy{} is a working policy.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per logical call (≤ 0 means 4).
	MaxAttempts int
	// BackoffBase and BackoffCap parameterize the decorrelated-jitter
	// delays between attempts (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

func (p *RetryPolicy) maxAttempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// NewClient returns a client for baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// idemPrefix lazily derives this client's idempotency-key namespace and
// backoff seed. Keys need only be unique per logical call, not
// deterministic; the seed is random so clients spread their retries
// instead of all drawing the same jitter.
func (c *Client) idemPrefix() string {
	c.prefixOnce.Do(func() {
		c.prefix = fmt.Sprintf("c%x-%d", rand.Int63(), clientSeq.Add(1))
		c.jitterSeed = rand.Int63()
	})
	return c.prefix
}

// backoff returns a fresh backoff for one logical call under the retry
// policy. Its seed mixes the client's random draw with the call's
// number, so neither two clients nor two calls of one client retry in
// lockstep.
func (c *Client) backoff(callID int64) *resilience.Backoff {
	c.idemPrefix() // draws jitterSeed
	base, cap := 25*time.Millisecond, time.Second
	if p := c.Retry; p != nil {
		if p.BackoffBase > 0 {
			base = p.BackoffBase
		}
		if p.BackoffCap > 0 {
			cap = p.BackoffCap
		}
	}
	return resilience.NewBackoff(base, cap, c.jitterSeed+callID)
}

// APIError is a non-2xx server response. Calls wrap it with the method
// and path, so callers match with errors.As:
//
//	var ae *server.APIError
//	if errors.As(err, &ae) && ae.Status == http.StatusConflict { ... }
type APIError struct {
	Status int
	Body   string

	retryAfter    time.Duration
	hasRetryAfter bool
	streamEnd     string // X-Stream-End reason on a 409 from an ended stream
}

func (e *APIError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// RetryAfter reports the parsed Retry-After header, if the response
// carried one in delay-seconds form.
func (e *APIError) RetryAfter() (time.Duration, bool) {
	return e.retryAfter, e.hasRetryAfter
}

// StatusCode extracts the HTTP status from a client error, or 0.
func StatusCode(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// jsonSink decodes a 2xx response body as JSON into out (nil skips it).
func jsonSink(out any) func(*http.Response) error {
	if out == nil {
		return nil
	}
	return func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// doHTTP runs exactly one attempt: send a preencoded body, map non-2xx to
// *APIError wrapped with "method path" context (transport failures are
// wrapped the same way so every error identifies the call that failed),
// and hand 2xx responses to sink.
func (c *Client) doHTTP(ctx context.Context, method, path string, body []byte, contentType, accept, idemKey string, sink func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	// Propagate the caller's trace, W3C trace-context style. doHTTP is the
	// single exit point for every request — including each attempt of a
	// retried call — so one logical operation keeps one trace ID end to end.
	if span := obs.FromContext(ctx); span != nil {
		req.Header.Set("traceparent", span.Traceparent())
	}
	opPath, _, _ := strings.Cut(path, "?")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("server: %s %s: %w", method, opPath, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		ae := &APIError{Status: resp.StatusCode, Body: string(msg)}
		ae.streamEnd = resp.Header.Get("X-Stream-End")
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				ae.retryAfter = time.Duration(secs) * time.Second
				ae.hasRetryAfter = true
			}
		}
		return fmt.Errorf("server: %s %s: %w", method, opPath, ae)
	}
	if sink == nil {
		return nil
	}
	return sink(resp)
}

// retryable classifies an error for the retry loop. A 429 shed means
// the server did not process the request, so any call may retry it.
// Ambiguous outcomes — transport errors and retryable 5xx — are only
// retried for idempotent calls.
func retryable(idempotent bool, err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests:
			return true
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return idempotent
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return idempotent
}

// retrySleep waits between attempts: an explicit Retry-After wins over
// the jittered backoff.
func retrySleep(ctx context.Context, err error, bo *resilience.Backoff) error {
	var ae *APIError
	if errors.As(err, &ae) {
		if ra, ok := ae.RetryAfter(); ok {
			return resilience.Sleep(ctx, ra)
		}
	}
	return resilience.Sleep(ctx, bo.Next())
}

// call drives one logical JSON request through the retry policy: body
// (nil for none) is marshaled once, and out (nil skips it) receives the
// decoded 2xx response. idempotent marks calls safe to repeat after an
// ambiguous failure.
func (c *Client) call(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var buf []byte
	contentType := ""
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
		contentType = wire.ContentTypeJSON
	}
	return c.callAttempt(ctx, idempotent, func(ctx context.Context) error {
		return c.doHTTP(ctx, method, path, buf, contentType, "", "", jsonSink(out))
	})
}

// callAttempt drives one logical request (whatever its encoding) through
// the retry policy.
func (c *Client) callAttempt(ctx context.Context, idempotent bool, attempt func(context.Context) error) error {
	rp := c.Retry
	if rp == nil {
		return attempt(ctx)
	}
	bo := c.backoff(c.calls.Add(1))
	for try := 1; ; try++ {
		err := attempt(ctx)
		if err == nil {
			return nil
		}
		if !retryable(idempotent, err) || try >= rp.maxAttempts() || ctx.Err() != nil {
			return err
		}
		if serr := retrySleep(ctx, err, bo); serr != nil {
			return serr
		}
	}
}

// Subscribe registers a profile and returns its id. Subscribing is not
// idempotent, so only sheds (429, provably unprocessed) are retried.
func (c *Client) Subscribe(ctx context.Context, cfg SubscriptionConfig) (int64, error) {
	var created map[string]int64
	if err := c.call(ctx, http.MethodPost, "/subscriptions", cfg, &created, false); err != nil {
		return 0, err
	}
	return created["id"], nil
}

// Unsubscribe removes a profile.
func (c *Client) Unsubscribe(ctx context.Context, id int64) error {
	return c.call(ctx, http.MethodDelete, fmt.Sprintf("/subscriptions/%d", id), nil, nil, true)
}

// Ingest feeds a batch of posts in time order and returns how many were
// accepted. On a mid-batch failure the server has already ingested the
// first accepted posts; resume the batch at posts[accepted] after fixing
// the failing item — do not resend the whole batch.
//
// With a RetryPolicy the resume is automatic and exactly-once: each
// attempt carries an idempotency key, so a retry whose predecessor's
// response was lost replays the recorded outcome instead of re-applying
// the batch, and a batch cut by the server's ingest deadline resumes at
// the accepted offset.
func (c *Client) Ingest(ctx context.Context, posts ...Post) (accepted int, err error) {
	rp := c.Retry
	if rp == nil {
		res, _, err := c.doIngest(ctx, posts, "")
		return res.Accepted, err
	}
	callID := c.calls.Add(1)
	bo := c.backoff(callID)
	sent := 0  // posts known applied by the server
	epoch := 0 // bumps whenever a genuine server outcome lands
	for attempt := 1; ; attempt++ {
		// The key is stable across retries of the same logical suffix:
		// if the previous attempt's response was lost after the server
		// applied it, the replay returns that outcome instead of
		// double-ingesting. Any received outcome advances the epoch, so
		// a later resume is a fresh operation with a fresh key.
		key := fmt.Sprintf("%s-%d-%d", c.idemPrefix(), callID, epoch)
		res, got, err := c.doIngest(ctx, posts[sent:], key)
		if err == nil {
			return sent + res.Accepted, nil
		}
		if got {
			sent += res.Accepted
			epoch++
		}
		if !retryable(true, err) || attempt >= rp.maxAttempts() || ctx.Err() != nil {
			return sent, err
		}
		if serr := retrySleep(ctx, err, bo); serr != nil {
			return sent, serr
		}
	}
}

// doIngest runs one POST /ingest attempt carrying the batch as one binary
// stream-post frame. got reports whether a genuine server outcome (an
// IngestResult, success or error) was received — the signal that
// distinguishes "the server decided" from "we cannot know".
func (c *Client) doIngest(ctx context.Context, posts []Post, key string) (res IngestResult, got bool, err error) {
	enc := wire.GetEncoder()
	sb := wire.GetStreamBatch()
	for _, p := range posts {
		sb.Posts = append(sb.Posts, wire.StreamPost(p))
	}
	frame := enc.EncodeStreamPosts(sb.Posts, wire.DefaultCompressThreshold)
	err = c.doHTTP(ctx, http.MethodPost, "/ingest", frame, wire.ContentTypeBinary, "", key, jsonSink(&res))
	sb.Release()
	wire.PutEncoder(enc)
	if err == nil {
		return res, true, nil
	}
	var ae *APIError
	if errors.As(err, &ae) {
		var partial IngestResult
		if jsonErr := json.Unmarshal([]byte(ae.Body), &partial); jsonErr == nil {
			return partial, true, err
		}
	}
	return IngestResult{}, false, err
}

// Emissions fetches a profile's emissions with Seq > after (limit ≤ 0 means
// all).
//
// When after predates the server's retained buffer, the lost range is
// reported instead of silently spliced over: the retained tail is
// returned together with a *GapError (match with errors.Is(err, ErrGap))
// whose FirstSeq says where the data resumes. A flushed, unsubscribed or
// quarantined subscription returns a *StreamEndError. The response is
// one binary emissions frame.
func (c *Client) Emissions(ctx context.Context, id, after int64, limit int) ([]Emission, error) {
	path := fmt.Sprintf("/subscriptions/%d/emissions?after=%d", id, after)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var out []Emission
	var gap *GapError
	err := c.callAttempt(ctx, true, func(ctx context.Context) error {
		return c.doHTTP(ctx, http.MethodGet, path, nil, "", wire.ContentTypeBinary, "", func(resp *http.Response) error {
			out, gap = out[:0], nil
			if fs := resp.Header.Get("X-First-Seq"); fs != "" {
				first, err1 := strconv.ParseInt(fs, 10, 64)
				from, err2 := strconv.ParseInt(resp.Header.Get("X-Gap-From"), 10, 64)
				if err1 == nil && err2 == nil {
					gap = &GapError{GapFrom: from, FirstSeq: first}
				}
			}
			dec := wire.GetDecoder()
			defer wire.PutDecoder(dec)
			kind, body, err := dec.ReadFrame(resp.Body)
			if err != nil {
				return fmt.Errorf("emissions frame: %w", err)
			}
			if kind != wire.KindEmissions {
				return fmt.Errorf("emissions frame: %w: unexpected kind 0x%02x", wire.ErrCorrupt, kind)
			}
			wes, err := wire.AppendEmissions(nil, body)
			if err != nil {
				return fmt.Errorf("emissions frame: %w", err)
			}
			for _, we := range wes {
				out = append(out, Emission(we))
			}
			return nil
		})
	})
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.streamEnd != "" {
			return nil, &StreamEndError{Reason: ae.streamEnd}
		}
		return nil, err
	}
	if gap != nil {
		return out, gap
	}
	return out, nil
}

// Flush forces every pending decision out. Flush is latched server-side,
// so retrying it is safe.
func (c *Client) Flush(ctx context.Context) error {
	return c.call(ctx, http.MethodPost, "/flush", struct{}{}, nil, true)
}

// Stats fetches service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.call(ctx, http.MethodGet, "/stats", nil, &st, true)
	return st, err
}

// SubscriptionStats fetches one profile's counters.
func (c *Client) SubscriptionStats(ctx context.Context, id int64) (SubscriptionStats, error) {
	var st SubscriptionStats
	err := c.call(ctx, http.MethodGet, fmt.Sprintf("/subscriptions/%d/stats", id), nil, &st, true)
	return st, err
}

// Metrics fetches the full observability snapshot (service counters plus
// every profile's stats and delay summary).
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.call(ctx, http.MethodGet, "/metrics", nil, &m, true)
	return m, err
}

// Health fetches the liveness snapshot.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.call(ctx, http.MethodGet, "/healthz", nil, &h, true)
	return h, err
}
