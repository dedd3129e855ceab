package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mqdp/internal/obs"
	"mqdp/internal/resilience"
	"mqdp/internal/wire"
)

// streamHTTPClient backs SSE connections when the caller didn't supply
// one: unlike defaultHTTPClient it has no overall timeout (a healthy
// stream is open indefinitely); lifetime is governed by the request
// context instead.
var streamHTTPClient = &http.Client{}

// fallbackPollInterval paces the polling fallback between empty rounds
// against a server without a push surface.
const fallbackPollInterval = 200 * time.Millisecond

// fallbackPollWait is the wait= sent by the polling fallback: long
// enough to amortize round trips, comfortably under defaultHTTPClient's
// 30s timeout so an empty long-poll is an empty answer, not an error.
const fallbackPollWait = 10 * time.Second

// StreamEvent is one push-delivery event. Exactly one field is non-nil.
type StreamEvent struct {
	// Emission is the next diversified emission, in seq order.
	Emission *Emission
	// TopK is a changed (or initial) continuous top-k view.
	TopK *TopKSnapshot
	// Gap reports seqs lost to server-side gc before this client saw
	// them; delivery resumes at Gap.FirstSeq.
	Gap *GapError
	// End is the terminal event: the subscription was flushed,
	// unsubscribed or quarantined. The stream closes after it.
	End *StreamEndError

	// Trace is the originating ingest trace of an Emission event, when
	// the server has tracing enabled (zero otherwise). Feed it to
	// /debug/traces/{id} to see the post's full server-side path.
	Trace obs.TraceID
}

// callbackErr marks an error returned by the caller's handler: it must
// propagate as-is, never retried.
type callbackErr struct{ error }

// Stream subscribes to push delivery for one subscription, invoking fn
// for every event in order. Emissions resume after the given cursor
// (0 = from the beginning still retained).
//
// Stream returns nil after a terminal end event, fn's error if fn fails,
// or ctx.Err() when the context ends. With a RetryPolicy, dropped
// connections reconnect with backoff and resume from the last delivered
// seq (the attempt budget resets whenever a connection makes progress);
// without one, the first failure is returned. Against another server
// that does not implement the push surface (501 or 405), Stream degrades to
// transparent polling of /emissions and /topk — fn sees the same event
// sequence either way.
func (c *Client) Stream(ctx context.Context, id, after int64, fn func(StreamEvent) error) error {
	rp := c.Retry
	bo := rp.backoff(func() int64 {
		if rp == nil {
			return 0
		}
		return rp.Seed + c.calls.Add(1)
	}())
	attempt := 0
	var lastVersion uint64
	seenTopK := false
	for {
		progressed, end, err := c.streamOnce(ctx, id, &after, &lastVersion, &seenTopK, fn)
		if end {
			return nil
		}
		var cb callbackErr
		if errors.As(err, &cb) {
			return cb.error
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		switch StatusCode(err) {
		case http.StatusNotImplemented, http.StatusMethodNotAllowed:
			return c.streamPoll(ctx, id, after, lastVersion, seenTopK, fn)
		}
		if progressed {
			attempt = 0
		}
		attempt++
		if rp == nil || !retryable(true, err) || attempt >= rp.maxAttempts() {
			return err
		}
		c.retries.Inc()
		if serr := retrySleep(ctx, err, bo); serr != nil {
			return serr
		}
	}
}

// streamOnce runs one SSE connection until it ends. It advances the
// caller's resume cursor and top-k version as events arrive so a
// reconnect (or the polling fallback) picks up where this connection
// dropped.
func (c *Client) streamOnce(ctx context.Context, id int64, after *int64, lastVersion *uint64, seenTopK *bool, fn func(StreamEvent) error) (progressed, end bool, err error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = streamHTTPClient
	}
	opPath := fmt.Sprintf("/subscriptions/%d/stream", id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s%s?after=%d", c.BaseURL, opPath, *after), nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// Propagate the caller's trace on every connection, reconnects
	// included, so the whole streaming session hangs off one trace.
	if span := obs.FromContext(ctx); span != nil {
		req.Header.Set("traceparent", span.Traceparent())
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, false, fmt.Errorf("server: GET %s: %w", opPath, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		ae := &APIError{Status: resp.StatusCode, Body: string(msg)}
		if resp.StatusCode == http.StatusTooManyRequests {
			c.shedSeen.Inc()
		}
		return false, false, fmt.Errorf("server: GET %s: %w", opPath, ae)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data, trace := "", "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" {
				isEnd, derr := c.dispatchSSE(event, data, trace, after, lastVersion, seenTopK, fn)
				if derr != nil {
					return progressed, false, derr
				}
				progressed = true
				if isEnd {
					return progressed, true, nil
				}
			}
			event, data, trace = "", "", ""
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case strings.HasPrefix(line, "trace: "):
			trace = line[len("trace: "):]
			// id: lines carry the emission seq, already in the payload.
		}
	}
	// The server never closes a healthy stream without an end event, so
	// EOF here is a dropped connection: reconnect and resume.
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return progressed, false, fmt.Errorf("server: GET %s: %w", opPath, err)
}

// dispatchSSE decodes one SSE event and hands it to fn. trace is the raw
// value of a nonstandard trace: field line, empty when absent.
func (c *Client) dispatchSSE(event, data, trace string, after *int64, lastVersion *uint64, seenTopK *bool, fn func(StreamEvent) error) (end bool, err error) {
	switch event {
	case "emission":
		var em Emission
		if err := json.Unmarshal([]byte(data), &em); err != nil {
			return false, fmt.Errorf("stream emission: %w", err)
		}
		*after = em.Seq
		ev := StreamEvent{Emission: &em}
		// Malformed trace annotations are dropped, never fatal: the
		// emission itself is intact.
		ev.Trace, _ = obs.ParseTraceID(trace)
		if err := fn(ev); err != nil {
			return false, callbackErr{err}
		}
	case "topk":
		var snap TopKSnapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			return false, fmt.Errorf("stream topk: %w", err)
		}
		*lastVersion, *seenTopK = snap.Version, true
		if err := fn(StreamEvent{TopK: &snap}); err != nil {
			return false, callbackErr{err}
		}
	case "gap":
		var g GapError
		if err := json.Unmarshal([]byte(data), &g); err != nil {
			return false, fmt.Errorf("stream gap: %w", err)
		}
		*after = g.FirstSeq - 1
		if err := fn(StreamEvent{Gap: &g}); err != nil {
			return false, callbackErr{err}
		}
	case "end":
		var ee endEvent
		if err := json.Unmarshal([]byte(data), &ee); err != nil {
			return false, fmt.Errorf("stream end: %w", err)
		}
		if err := fn(StreamEvent{End: &StreamEndError{Reason: ee.Reason}}); err != nil {
			return true, callbackErr{err}
		}
		return true, nil
	}
	// Unknown event types are skipped, leaving room for protocol growth.
	return false, nil
}

// streamPoll is the polling fallback behind Stream: the same event
// sequence reconstructed from /emissions (long-polled where the server
// supports it) and /topk snapshots.
func (c *Client) streamPoll(ctx context.Context, id, after int64, lastVersion uint64, seenTopK bool, fn func(StreamEvent) error) error {
	for {
		busy := false
		es, err := c.emissions(ctx, id, after, 0, fallbackPollWait)
		var gap *GapError
		if errors.As(err, &gap) {
			if ferr := fn(StreamEvent{Gap: gap}); ferr != nil {
				return ferr
			}
			after, busy = gap.FirstSeq-1, true
			err = nil
		}
		var endErr *StreamEndError
		if errors.As(err, &endErr) {
			if ferr := fn(StreamEvent{End: endErr}); ferr != nil {
				return ferr
			}
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		for i := range es {
			after, busy = es[i].Seq, true
			if ferr := fn(StreamEvent{Emission: &es[i]}); ferr != nil {
				return ferr
			}
		}
		snap, err := c.TopKContext(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if !seenTopK || snap.Version != lastVersion {
			lastVersion, seenTopK, busy = snap.Version, true, true
			if ferr := fn(StreamEvent{TopK: &snap}); ferr != nil {
				return ferr
			}
		}
		if !busy {
			// Against a server that ignores wait= the poll returns
			// immediately; pace the loop instead of spinning.
			if serr := resilience.Sleep(ctx, fallbackPollInterval); serr != nil {
				return serr
			}
		}
	}
}

// TopK fetches the subscription's continuously maintained diversified
// top-k view.
func (c *Client) TopK(id int64) (TopKSnapshot, error) {
	return c.TopKContext(context.Background(), id)
}

// TopKContext is TopK honoring ctx, negotiating the binary frame format
// via Accept like the emissions poll.
func (c *Client) TopKContext(ctx context.Context, id int64) (TopKSnapshot, error) {
	path := fmt.Sprintf("/subscriptions/%d/topk", id)
	var snap TopKSnapshot
	err := c.callAttempt(ctx, http.MethodGet, path, true, func(ctx context.Context) error {
		accept := ""
		if c.useBinary() {
			accept = wire.ContentTypeBinary
		}
		return c.doHTTP(ctx, http.MethodGet, path, nil, "", accept, "", func(resp *http.Response) error {
			snap = TopKSnapshot{}
			if !wire.IsBinary(resp.Header.Get("Content-Type")) {
				return json.NewDecoder(resp.Body).Decode(&snap)
			}
			dec := wire.GetDecoder()
			defer wire.PutDecoder(dec)
			kind, body, err := dec.ReadFrame(resp.Body)
			if err != nil {
				return fmt.Errorf("topk frame: %w", err)
			}
			if kind != wire.KindTopK {
				return fmt.Errorf("topk frame: %w: unexpected kind 0x%02x", wire.ErrCorrupt, kind)
			}
			version, k, wes, err := wire.DecodeTopK(body)
			if err != nil {
				return fmt.Errorf("topk frame: %w", err)
			}
			snap.Version, snap.K = version, k
			snap.Items = make([]Emission, len(wes))
			for i, we := range wes {
				snap.Items[i] = Emission(we)
			}
			return nil
		})
	})
	return snap, err
}
