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

	"mqdp/internal/obs"
	"mqdp/internal/wire"
)

// streamHTTPClient backs SSE connections when the caller didn't supply
// one: unlike defaultHTTPClient it has no overall timeout (a healthy
// stream is open indefinitely); lifetime is governed by the request
// context instead.
var streamHTTPClient = &http.Client{}

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
// seq (the attempt budget and the backoff reset whenever a connection
// makes progress); without one, the first failure is returned. A refused
// stream (for example 501 or 405) is returned as a wrapped *APIError.
func (c *Client) Stream(ctx context.Context, id, after int64, fn func(StreamEvent) error) error {
	rp := c.Retry
	bo := c.backoff(c.calls.Add(1))
	attempt := 0
	for {
		progressed, end, err := c.streamOnce(ctx, id, &after, fn)
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
		if progressed {
			attempt = 0
			bo.Reset()
		}
		attempt++
		if rp == nil || !retryable(true, err) || attempt >= rp.maxAttempts() {
			return err
		}
		if serr := retrySleep(ctx, err, bo); serr != nil {
			return serr
		}
	}
}

// streamOnce runs one SSE connection until it ends. It advances the
// caller's resume cursor as events arrive so a reconnect picks up where
// this connection dropped.
func (c *Client) streamOnce(ctx context.Context, id int64, after *int64, fn func(StreamEvent) error) (progressed, end bool, err error) {
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
				isEnd, derr := c.dispatchSSE(event, data, trace, after, fn)
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
func (c *Client) dispatchSSE(event, data, trace string, after *int64, fn func(StreamEvent) error) (end bool, err error) {
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

// TopK fetches the subscription's continuously maintained diversified
// top-k view as one binary top-k frame.
func (c *Client) TopK(ctx context.Context, id int64) (TopKSnapshot, error) {
	path := fmt.Sprintf("/subscriptions/%d/topk", id)
	var snap TopKSnapshot
	err := c.callAttempt(ctx, true, func(ctx context.Context) error {
		return c.doHTTP(ctx, http.MethodGet, path, nil, "", wire.ContentTypeBinary, "", func(resp *http.Response) error {
			snap = TopKSnapshot{}
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
