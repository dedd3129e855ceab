package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mqdp/internal/obs"
)

// streamBatchLimit bounds how many emissions one SSE wake drains before
// flushing; a backlogged stream loops immediately rather than building a
// single giant write.
const streamBatchLimit = 512

// endEvent is the data payload of a terminal "end" SSE event.
type endEvent struct {
	Reason string `json:"reason"`
}

// serveStream serves GET /subscriptions/{id}/stream as Server-Sent Events.
//
// Event grammar:
//
//	event: emission   data: Emission        (with id: <seq> for resume, and
//	                                         trace: <32 hex> naming the
//	                                         originating ingest trace when
//	                                         tracing is enabled)
//	event: topk       data: TopKSnapshot    (sent on connect, then on change)
//	event: gap        data: GapError        (cursor predates retained buffer)
//	event: end        data: {"reason": ...} (terminal: flushed | unsubscribed |
//	                                         quarantined; stream closes after)
//
// The trace: line is a nonstandard SSE field: spec-conforming parsers ignore
// unknown fields, so plain SSE consumers are unaffected while this repo's
// Client surfaces it on StreamEvent.Trace. Keeping the trace out of the
// data: payload keeps emission JSON byte-identical with tracing on or off.
//
// The cursor starts at ?after=SEQ, overridden by a Last-Event-ID header on
// reconnect (the standard SSE resume mechanism). Between batches the
// handler parks on the subscription's hub: an idle stream costs one
// goroutine and no CPU. Pending emissions are always drained before the
// terminal end event, and a stale resume cursor produces an explicit gap
// event — the same no-silent-splice contract as the poll path.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, id int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by connection", http.StatusNotImplemented)
		return
	}
	after, err := queryCursor(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sub, ok := s.lookup(id)
	if !ok {
		http.Error(w, ErrNoSuchSubscription.Error(), http.StatusNotFound)
		return
	}
	s.addStreams(1)
	defer s.addStreams(-1)

	// A malformed or negative Last-Event-ID is ignored: the ?after= cursor
	// stands.
	if v, err := strconv.ParseInt(r.Header.Get("Last-Event-ID"), 10, 64); err == nil && v >= 0 {
		after = v
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx := r.Context()
	var lastVersion uint64
	first := true // the initial top-k view is always pushed
	for {
		// One locked pass collects everything this wake can deliver; all
		// writes happen outside the lock so a slow client never stalls
		// ingest.
		sub.mu.Lock()
		tail, traces, gap := sub.pollLocked(after, streamBatchLimit)
		done, reason := sub.done, sub.doneReason
		var snap TopKSnapshot
		haveSnap := false
		if v := sub.topk.Version(); first || v != lastVersion {
			snap = sub.topkSnapshotLocked()
			haveSnap = true
			lastVersion = v
			first = false
		}
		var ch chan struct{}
		if len(tail) == 0 && gap == nil && !haveSnap && !done {
			ch = sub.waitChLocked()
		}
		sub.mu.Unlock()

		// A non-empty drain is one push wakeup: span it under the stream's
		// request trace so delivery shows up in the end-to-end picture.
		var wake *obs.ActiveSpan
		if len(tail) > 0 || gap != nil {
			_, wake = obs.StartSpan(ctx, "sse.wake")
			wake.SetInt("emissions", int64(len(tail)))
		}

		if gap != nil {
			s.gaps.Inc()
			wake.Set("gap", "true")
			if writeEvent(w, "", "gap", "", gap) != nil {
				wake.End()
				return
			}
			// The splice is reported; resume at the first retained seq so
			// the same gap is not re-announced every iteration.
			after = gap.FirstSeq - 1
		}
		for i := range tail {
			trace := ""
			if traces != nil && !traces[i].IsZero() {
				trace = traces[i].String()
			}
			if writeEvent(w, strconv.FormatInt(tail[i].Seq, 10), "emission", trace, &tail[i]) != nil {
				wake.End()
				return
			}
			after = tail[i].Seq
			s.pushed.Inc()
		}
		wake.End()
		if haveSnap {
			if writeEvent(w, "", "topk", "", snap) != nil {
				return
			}
		}
		if done && len(tail) == 0 && gap == nil {
			_ = writeEvent(w, "", "end", "", endEvent{Reason: reason})
			flusher.Flush()
			return
		}
		flusher.Flush()
		if ch == nil {
			continue // the batch limit may have left more to drain
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// writeEvent emits one SSE event. JSON escapes newlines, so the payload is
// always a single data: line. A non-empty trace adds a nonstandard
// "trace: <hex>" field line naming the originating ingest trace.
func writeEvent(w io.Writer, id, event, trace string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	if trace != "" {
		if _, err := fmt.Fprintf(w, "trace: %s\n", trace); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
