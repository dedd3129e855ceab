package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mqdp/internal/obs"
)

// Request tracing, SLO classification and structured request logging for the
// HTTP surface. The middleware is wired unconditionally by Handler but costs
// one branch when nothing is configured — the same near-free-when-disabled
// contract as the rest of the obs layer.
//
// Propagation is W3C trace-context shaped: requests carrying a valid
// traceparent header continue that trace (the remote caller's span becomes
// the parent); anything missing or malformed starts a fresh root — never a
// 4xx. Every traced response echoes X-Trace-Id so a client can pull the
// server-side tree from /debug/traces/{id}.

// SLOs returns the status of every configured SLO (empty when none are).
func (s *Server) SLOs() []obs.SLOStatus {
	var out []obs.SLOStatus
	if slo := s.cfg.SLOIngest; slo != nil {
		out = append(out, slo.Status())
	}
	if slo := s.cfg.SLOPoll; slo != nil {
		out = append(out, slo.Status())
	}
	return out
}

// routeName maps a request path to the coarse name used for span naming and
// SLO classification (one name per endpoint, not per subscription).
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/ingest":
		return "ingest"
	case p == "/subscriptions":
		return "subscribe"
	case strings.HasPrefix(p, "/subscriptions/"):
		rest := p[len("/subscriptions/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i+1:] {
			case "emissions", "topk", "stream", "digest", "stats":
				return rest[i+1:]
			}
			return "subscriptions"
		}
		if r.Method == http.MethodDelete {
			return "unsubscribe"
		}
		return "subscriptions"
	case p == "/flush":
		return "flush"
	case p == "/stats":
		return "stats"
	case p == "/metrics":
		return "metrics"
	case p == "/metrics/prometheus":
		return "prometheus"
	case p == "/healthz":
		return "healthz"
	case strings.HasPrefix(p, "/debug/traces"):
		return "debug_traces"
	}
	return "other"
}

// statusRecorder captures the response status for the span/SLO/log record.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// flushRecorder adds Flusher passthrough so the SSE handler's streaming
// assertion still holds through the middleware.
type flushRecorder struct {
	*statusRecorder
	f http.Flusher
}

func (r flushRecorder) Flush() { r.f.Flush() }

// withObs wraps the API mux with per-request tracing, SLO classification and
// request logging. With no tracer, SLOs or logger configured the wrapper is
// one branch per request.
func withObs(s *Server, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tracer := s.tracer()
		sloIngest, sloPoll, logger := s.cfg.SLOIngest, s.cfg.SLOPoll, s.cfg.Logger
		if tracer == nil && sloIngest == nil && sloPoll == nil && logger == nil {
			h.ServeHTTP(w, r)
			return
		}

		route := routeName(r)
		start := time.Now()
		var span *obs.ActiveSpan
		if tracer != nil {
			// Extract-or-create: a valid traceparent continues the caller's
			// trace; anything missing or malformed starts a fresh root.
			if trace, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
				span = tracer.StartRemote("http."+route, trace, parent)
			} else {
				span = tracer.StartTrace("http." + route)
			}
			span.Set("method", r.Method)
			span.Set("path", r.URL.Path)
			w.Header().Set("X-Trace-Id", span.TraceID().String())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}

		rec := &statusRecorder{ResponseWriter: w}
		var ww http.ResponseWriter = rec
		if f, ok := w.(http.Flusher); ok {
			ww = flushRecorder{rec, f}
		}
		h.ServeHTTP(ww, r)

		elapsed := time.Since(start)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if span != nil {
			span.SetInt("status", int64(status))
			if status >= 500 {
				span.SetError(fmt.Errorf("http status %d", status))
			}
			span.End()
		}
		switch route {
		case "ingest":
			sloIngest.Observe(elapsed)
		case "emissions":
			// Long polls park on purpose; only plain polls count against
			// the poll latency objective.
			if r.URL.Query().Get("wait") == "" {
				sloPoll.Observe(elapsed)
			}
		}
		if logger != nil {
			level := slog.LevelDebug
			if status >= 500 {
				level = slog.LevelWarn
			}
			if logger.Enabled(r.Context(), level) {
				attrs := []any{
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Int("status", status),
					slog.Duration("elapsed", elapsed),
				}
				if span != nil {
					attrs = append(attrs, slog.String("trace_id", span.TraceID().String()))
				}
				logger.Log(r.Context(), level, "http request", attrs...)
			}
		}
	})
}

// traceListLimit is the default /debug/traces list length.
const traceListLimit = 50

// handleTraceList serves GET /debug/traces: recent traces, newest first.
// ?n= caps the list, ?min= (a Go duration) keeps only traces at least that
// slow, ?format=text renders one line per trace.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	tracer := s.tracer()
	if tracer == nil {
		http.Error(w, "tracer not wired", http.StatusServiceUnavailable)
		return
	}
	n := traceListLimit
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		n = v
	}
	var minDur time.Duration
	if v, err := time.ParseDuration(r.URL.Query().Get("min")); err == nil && v > 0 {
		minDur = v
	}
	sums := tracer.Summaries()
	filtered := sums[:0]
	for _, sum := range sums {
		if time.Duration(sum.DurationMS*float64(time.Millisecond)) >= minDur {
			filtered = append(filtered, sum)
		}
	}
	if len(filtered) > n {
		filtered = filtered[:n]
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, sum := range filtered {
			fmt.Fprintf(w, "%s %s %.3fms spans=%d errors=%d\n",
				sum.Trace, sum.Root, sum.DurationMS, sum.Spans, sum.Errors)
		}
		return
	}
	stats := tracer.Stats()
	writeJSON(w, map[string]any{
		"traces":      filtered,
		"recorded":    stats.Recorded,
		"sampled_out": stats.SampledOut,
		"dropped":     stats.Dropped,
	})
}

// handleTraceGet serves GET /debug/traces/{id}: one trace as a parent-linked
// span tree (JSON, or indented text with ?format=text).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	tracer := s.tracer()
	if tracer == nil {
		http.Error(w, "tracer not wired", http.StatusServiceUnavailable)
		return
	}
	id, ok := obs.ParseTraceID(strings.TrimPrefix(r.URL.Path, "/debug/traces/"))
	if !ok {
		http.Error(w, "bad trace id (want 32 hex digits)", http.StatusBadRequest)
		return
	}
	spans := tracer.Trace(id)
	if len(spans) == 0 {
		http.Error(w, "trace not found (dropped, sampled out, or never existed)", http.StatusNotFound)
		return
	}
	roots := obs.BuildTraceTree(spans)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace %s (%d spans)\n", id, len(spans))
		_ = obs.WriteTraceTree(w, roots)
		return
	}
	writeJSON(w, map[string]any{
		"trace": id.String(),
		"spans": len(spans),
		"roots": roots,
	})
}

// tracer returns the wired span tracer, or nil.
func (s *Server) tracer() *obs.Tracer {
	if o := s.obs; o != nil {
		return o.tracer
	}
	return nil
}
