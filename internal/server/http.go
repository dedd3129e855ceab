package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mqdp/internal/digest"
	"mqdp/internal/obs"
	"mqdp/internal/wire"
)

// Handler exposes the Server over HTTP:
//
//	POST   /subscriptions                 {topics, lambda, tau, algorithm} → {"id": N}
//	DELETE /subscriptions/{id}
//	GET    /subscriptions/{id}/emissions?after=SEQ&limit=K&wait=DUR → [Emission]
//	                                      (400 on an unparsable limit or an after
//	                                      that is not an integer ≥ 0)
//	                                      (or one binary emissions frame when the
//	                                      request Accepts application/x-mqdp-frame).
//	                                      wait= long-polls up to DUR (capped at
//	                                      60s) for new emissions. A stale after
//	                                      cursor — older than the retained
//	                                      buffer — returns the kept tail with
//	                                      X-Gap-From/X-First-Seq headers naming
//	                                      the lost range instead of silently
//	                                      splicing; a flushed,
//	                                      unsubscribed or quarantined stream
//	                                      answers 409 + X-Stream-End: reason.
//	GET    /subscriptions/{id}/topk       → TopKSnapshot: the continuously
//	                                      maintained diversified top-k view (or
//	                                      one binary top-k frame under the same
//	                                      Accept negotiation)
//	GET    /subscriptions/{id}/stream     Server-Sent Events push: emission,
//	                                      topk, gap and end events. Resumes from
//	                                      ?after=SEQ (400 unless an integer ≥ 0)
//	                                      or Last-Event-ID.
//	GET    /subscriptions/{id}/stats      → SubscriptionStats
//	POST   /ingest                        Post or [Post] → {"accepted": N} (on a
//	                                      mid-batch error: {"accepted": N, "error": ...}
//	                                      with N = posts ingested before the failure).
//	                                      Bodies may alternatively be one binary
//	                                      stream-post frame (Content-Type
//	                                      application/x-mqdp-frame, see
//	                                      internal/wire); responses stay JSON.
//	                                      Bodies over 64 MiB get 413. A client
//	                                      that disconnects mid-batch cuts it
//	                                      between posts (503 with the applied
//	                                      prefix count). An Idempotency-Key
//	                                      header makes the call
//	                                      replayable: a retry with the same key
//	                                      returns the recorded outcome (marked
//	                                      Idempotent-Replay: true) without
//	                                      re-applying the batch, waiting for that
//	                                      outcome if the original is in flight.
//	POST   /flush
//	GET    /stats                         → Stats
//	GET    /metrics                       → Metrics (service + per-profile counters)
//	GET    /metrics/prometheus            → text exposition of the wired obs registry
//	                                      (503 without Config.Obs)
//	GET    /healthz                       → Health
//	GET    /debug/traces                  → recent traces, newest first (?n=, ?min=,
//	                                      ?format=text); 503 until a tracer is wired
//	GET    /debug/traces/{id}             → one trace as a parent-linked span tree
//	                                      (JSON, or indented text with ?format=text)
//
// A method the route does not serve is answered 405 by the mux. Every
// route is wrapped by the observability middleware: requests carrying
// a valid W3C traceparent header continue that trace, everything else gets
// a fresh root span, and traced responses echo X-Trace-Id.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	// Not "POST /subscriptions": the mux would redirect a GET to the
	// /subscriptions/ subtree instead of answering 405.
	mux.HandleFunc("/subscriptions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var cfg SubscriptionConfig
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFramePayload)).Decode(&cfg); err != nil {
			http.Error(w, err.Error(), ingestDecodeStatus(err))
			return
		}
		id, err := s.Subscribe(cfg)
		if err != nil {
			if errors.Is(err, ErrReadOnly) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]int64{"id": id})
	})
	mux.HandleFunc("/subscriptions/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/subscriptions/")
		parts := strings.Split(rest, "/")
		id, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			http.Error(w, "bad subscription id", http.StatusBadRequest)
			return
		}
		switch {
		case len(parts) == 1 && r.Method == http.MethodDelete:
			if err := s.Unsubscribe(id); err != nil {
				httpError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case len(parts) == 2 && parts[1] == "emissions" && r.Method == http.MethodGet:
			q := r.URL.Query()
			after, err := queryCursor(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			limit, err := queryInt(q, "limit")
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var es []Emission
			if wait := parseWait(q.Get("wait")); wait > 0 {
				// Long-poll: park on the subscription's hub instead of
				// returning empty, counted as a push waiter like SSE.
				s.addStreams(1)
				ctx, cancel := context.WithTimeout(r.Context(), wait)
				es, err = s.WaitEmissions(ctx, id, after, int(limit))
				cancel()
				s.addStreams(-1)
				if errors.Is(err, context.DeadlineExceeded) {
					es, err = nil, nil // nothing arrived in time: empty poll
				}
			} else {
				es, err = s.Emissions(id, after, int(limit))
			}
			// A stale cursor is reported, never hidden: the body carries the
			// retained tail, the headers name the spliced-out range.
			var gap *GapError
			if errors.As(err, &gap) {
				s.gaps.Inc()
				w.Header().Set("X-Gap-From", strconv.FormatInt(gap.GapFrom, 10))
				w.Header().Set("X-First-Seq", strconv.FormatInt(gap.FirstSeq, 10))
				err = nil
			}
			if err != nil {
				var end *StreamEndError
				if errors.As(err, &end) {
					w.Header().Set("X-Stream-End", end.Reason)
					http.Error(w, err.Error(), http.StatusConflict)
					return
				}
				if errors.Is(err, context.Canceled) {
					return // client went away mid-wait
				}
				httpError(w, err)
				return
			}
			if es == nil {
				es = []Emission{}
			}
			// Content negotiation: a client accepting the binary frame
			// format gets a KindEmissions frame; everyone else gets the
			// identical data as JSON (the default).
			if wire.AcceptsBinary(r.Header.Get("Accept")) {
				writeBinary(w, es, func(enc *wire.Encoder, wes []wire.Emission) []byte {
					return enc.EncodeEmissions(wes, wire.DefaultCompressThreshold)
				})
				return
			}
			writeJSON(w, es)
		case len(parts) == 2 && parts[1] == "topk" && r.Method == http.MethodGet:
			snap, err := s.TopK(id)
			if err != nil {
				httpError(w, err)
				return
			}
			if wire.AcceptsBinary(r.Header.Get("Accept")) {
				writeBinary(w, snap.Items, func(enc *wire.Encoder, wes []wire.Emission) []byte {
					return enc.EncodeTopK(snap.Version, snap.K, wes, wire.DefaultCompressThreshold)
				})
				return
			}
			writeJSON(w, snap)
		case len(parts) == 2 && parts[1] == "stream" && r.Method == http.MethodGet:
			s.serveStream(w, r, id)
		case len(parts) == 2 && parts[1] == "digest" && r.Method == http.MethodGet:
			d, err := s.Digest(id)
			if err != nil {
				httpError(w, err)
				return
			}
			opts := digest.Options{MaxTextLen: 80, ValueAsClock: true}
			if r.URL.Query().Get("format") == "md" {
				w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
				if err := d.WriteMarkdown(w, opts); err != nil {
					httpError(w, err)
				}
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := d.WriteText(w, opts); err != nil {
				httpError(w, err)
			}
		case len(parts) == 2 && parts[1] == "stats" && r.Method == http.MethodGet:
			st, err := s.SubscriptionStats(id)
			if err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, st)
		default:
			http.Error(w, "not found", http.StatusNotFound)
		}
	})
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		// Negotiation: binary-framed bodies are opt-in via Content-Type.
		binary := wire.IsBinary(r.Header.Get("Content-Type"))
		// Both decode paths hand the batch back through pooled scratch:
		// binary frames decode with O(1) heap allocations per post, and
		// the JSON fallback reuses its body buffer and post slice.
		_, decSpan := obs.StartSpan(r.Context(), "ingest.decode")
		body := r.Body
		if !binary {
			// A binary frame declares its length and is refused past
			// wire.MaxFramePayload before it is read; JSON gets the same cap.
			body = http.MaxBytesReader(w, body, wire.MaxFramePayload)
		}
		batch, freeBatch, derr := decodeIngestBody(body, binary)
		if derr != nil {
			decSpan.SetError(derr)
			decSpan.End()
			http.Error(w, derr.Error(), ingestDecodeStatus(derr))
			return
		}
		decSpan.SetInt("posts", int64(len(batch)))
		decSpan.End()
		defer freeBatch()
		// The whole batch goes through IngestBatch: with durability enabled
		// it becomes one atomic WAL record (keyed by the idempotency key)
		// committed before any post is applied, and the recorded outcome
		// lands in the replay cache under the same critical section. A
		// client disconnect cuts between posts, never inside one, and the
		// response reports the applied prefix so clients resume at the
		// failed item instead of double-ingesting.
		//
		// Idempotent replay: a retrying client that never saw the response
		// resends with the same key and gets the recorded outcome — the
		// batch is never applied twice. Replay is format-independent: a
		// JSON retry of a binary-framed original (or vice versa) returns
		// the same recorded result.
		key := r.Header.Get("Idempotency-Key")
		res, status, ingestErr := s.IngestBatch(r.Context(), batch, key)
		if res.Replayed {
			if sp := obs.FromContext(r.Context()); sp != nil {
				sp.Set("idem_replay", "true")
			}
			w.Header().Set("Idempotent-Replay", "true")
		}
		if errors.Is(ingestErr, ErrReadOnly) {
			// The WAL is broken; retrying immediately cannot help. Point
			// clients at a pause while the operator intervenes.
			w.Header().Set("Retry-After", "1")
		}
		writeIngestResult(w, status, res)
	})
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		s.Flush()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Metrics())
	})
	mux.HandleFunc("GET /metrics/prometheus", func(w http.ResponseWriter, r *http.Request) {
		reg := s.cfg.Obs
		if reg == nil {
			http.Error(w, "metrics registry not wired", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Health())
	})
	mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /debug/traces/", s.handleTraceGet)
	return withObs(s, mux)
}

// IngestResult is the POST /ingest response body. On success Accepted is
// the full batch size; on failure it is the number of posts ingested
// before the failing item and Error describes the failure.
type IngestResult struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
	// Replayed reports that this call applied nothing: the outcome is the
	// one recorded for an earlier request with the same idempotency key.
	// On the wire it is the Idempotent-Replay header, not a body field.
	Replayed bool `json:"-"`
}

// ingestScratch is the pooled per-request decode state for /ingest: the
// raw body buffer and the decoded post slice are reused across requests,
// so the JSON fallback path stops allocating per post (beyond the text
// strings themselves, which escape into server state) just like the
// binary path.
type ingestScratch struct {
	body  []byte
	batch []Post
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// release clears post references (so pooled memory doesn't pin text
// strings) and returns the scratch, dropping outsized buffers.
func (sc *ingestScratch) release() {
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	sc.body = sc.body[:0]
	const keep = 8 << 20
	if cap(sc.body) > keep {
		sc.body = nil
	}
	if cap(sc.batch) > 1<<17 {
		sc.batch = nil
	}
	ingestScratchPool.Put(sc)
}

// readBody fills sc.body from r without the per-request allocations of
// io.ReadAll.
func (sc *ingestScratch) readBody(r io.Reader) error {
	for {
		if cap(sc.body)-len(sc.body) < 512 {
			sc.body = append(sc.body, make([]byte, 64<<10)...)[:len(sc.body)]
		}
		n, err := r.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decodeJSONBatch decodes a Post or [Post] JSON body into sc.batch,
// reusing its capacity.
func (sc *ingestScratch) decodeJSONBatch(data []byte) error {
	sc.batch = sc.batch[:0]
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		return json.Unmarshal(trimmed, &sc.batch)
	}
	var one Post
	if err := json.Unmarshal(trimmed, &one); err != nil {
		return err
	}
	sc.batch = append(sc.batch, one)
	return nil
}

// decodeIngestBody decodes an ingest request body in either wire format
// through pooled scratch. The returned batch is valid until free is
// called; free must be called exactly once (after the ingest loop).
func decodeIngestBody(r io.Reader, binary bool) (batch []Post, free func(), err error) {
	sc := ingestScratchPool.Get().(*ingestScratch)
	if !binary {
		if err := sc.readBody(r); err != nil {
			sc.release()
			return nil, nil, err
		}
		if err := sc.decodeJSONBatch(sc.body); err != nil {
			sc.release()
			return nil, nil, err
		}
		return sc.batch, sc.release, nil
	}
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	kind, frameBody, err := dec.ReadFrame(r)
	if err != nil {
		sc.release()
		return nil, nil, err
	}
	if kind != wire.KindStreamPosts {
		sc.release()
		return nil, nil, errors.New("wire: ingest frame must be a stream-post batch")
	}
	sb := wire.GetStreamBatch()
	defer sb.Release()
	sb.Posts, err = wire.AppendStreamPosts(sb.Posts[:0], frameBody)
	if err != nil {
		sc.release()
		return nil, nil, err
	}
	sc.batch = sc.batch[:0]
	if cap(sc.batch) < len(sb.Posts) {
		sc.batch = make([]Post, 0, len(sb.Posts))
	}
	for _, sp := range sb.Posts {
		sc.batch = append(sc.batch, Post(sp))
	}
	return sc.batch, sc.release, nil
}

// ingestDecodeStatus maps decode failures to HTTP statuses: oversized
// frames and bodies over the MaxBytesReader cap are 413, everything else
// malformed is 400.
func ingestDecodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.Is(err, wire.ErrFrameTooLarge) || errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// queryInt reads an integer query parameter; absent or empty means 0.
func queryInt(q url.Values, name string) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want an integer", name, v)
	}
	return n, nil
}

// queryCursor reads the ?after= resume cursor: a seq, so an integer ≥ 0.
// A negative one would otherwise be reported as a gap that never existed.
func queryCursor(q url.Values) (int64, error) {
	after, err := queryInt(q, "after")
	if err == nil && after < 0 {
		err = fmt.Errorf("bad after=%d: want an integer ≥ 0", after)
	}
	return after, err
}

// maxLongPollWait caps ?wait= so a typoed duration can't pin a handler
// goroutine for hours; clients wanting longer just reissue the poll.
const maxLongPollWait = 60 * time.Second

// parseWait reads a ?wait= value as a Go duration ("30s") or bare
// seconds ("30"); empty, malformed or negative values mean no wait.
func parseWait(s string) time.Duration {
	if s == "" {
		return 0
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		secs, err2 := strconv.Atoi(s)
		if err2 != nil {
			return 0
		}
		d = time.Duration(secs) * time.Second
	}
	if d < 0 {
		return 0
	}
	if d > maxLongPollWait {
		d = maxLongPollWait
	}
	return d
}

// writeBinary renders es as the one binary frame encode builds from them
// (a poll's KindEmissions or a top-k view's KindTopK).
func writeBinary(w http.ResponseWriter, es []Emission, encode func(*wire.Encoder, []wire.Emission) []byte) {
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	wes := make([]wire.Emission, len(es))
	for i, e := range es {
		wes[i] = wire.Emission(e)
	}
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	_, _ = w.Write(encode(enc, wes))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeIngestResult writes an IngestResult with an explicit status,
// used by both the live ingest path and idempotent replays (which must
// reproduce the original status byte-for-byte).
func writeIngestResult(w http.ResponseWriter, status int, res IngestResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(res)
}

func httpError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrReadOnly) {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), statusFor(err))
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNoSuchSubscription):
		return http.StatusNotFound
	case errors.Is(err, ErrOutOfOrder), errors.Is(err, ErrClosed):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's context ended mid-batch; the accepted prefix is
		// applied and the remainder is safe to retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrReadOnly):
		// Durability degraded: nothing was applied; retry elsewhere/later.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
