// Command mqdp-server runs the publish/subscribe diversification service:
// clients register topic profiles and poll per-profile diversified feeds
// while a shared post stream is ingested.
//
//	mqdp-server -addr :8080 -dedup 10
//
// API (JSON):
//
//	POST   /subscriptions   {"topics":[{"Name":"obama","Keywords":[{"Text":"obama","Weight":1}]}],
//	                         "lambda":3600, "tau":30, "algorithm":"streamscan+"} → {"id":1}
//	POST   /ingest          {"id":1,"time":1370000000,"text":"..."} or a JSON array of posts
//	                        → {"accepted":N} ({"accepted":N,"error":...} on a mid-batch failure)
//	GET    /subscriptions/1/emissions?after=0&limit=100      (add &wait=30s to long-poll)
//	GET    /subscriptions/1/stream  (Server-Sent Events push; try curl -N)
//	GET    /subscriptions/1/topk    (continuous diversified top-k view)
//	GET    /subscriptions/1/stats · GET /stats · GET /metrics · GET /healthz
//	GET    /metrics/prometheus  (text exposition of every registered instrument)
//	GET    /debug/traces · GET /debug/traces/{id}  (recent request traces)
//	POST   /flush · DELETE /subscriptions/1
//
// Tracing: unless -trace=false (or -no-obs), every request runs under a
// span; requests carrying a W3C traceparent header continue the caller's
// trace and responses echo X-Trace-Id. The journal keeps the last 4096
// spans and is tail-sampled — errored and slow traces (≥ 100 ms) are
// always kept, every -trace-sample'th ordinary trace rides along — and
// browsable at /debug/traces. Logs are structured (log/slog); -log-format
// json emits machine-readable records, -log-level debug includes
// per-request lines correlated by trace_id.
//
// SLOs: -slo-ingest/-slo-poll set per-endpoint latency objectives
// (e.g. -slo-ingest 50ms) against the -slo-target availability, which
// must lie in (0, 1). Good/bad counters land in the Prometheus exposition
// as mqdp_slo_*_total, and burn rates appear under /metrics even with
// -no-obs.
//
// Ingest fan-out: posts route through an inverted keyword → subscription
// index so only subscriptions sharing a keyword with the post are fed
// (see docs/ARCHITECTURE.md, "Subscription routing"), one after another on
// the ingest goroutine.
//
// Durability (off by default; see docs/ARCHITECTURE.md, "Durability and
// recovery"): -data-dir names a directory for the write-ahead log and
// state snapshots. Every ingest batch, subscription change and terminal
// latch is journaled before it is applied, snapshots are taken every
// -snapshot-interval and on graceful shutdown, and a restart on the same
// directory recovers the full state — subscriptions, emission buffers,
// in-flight diversification windows, the idempotency replay cache —
// then replays the WAL suffix, so a kill -9 loses nothing a retrying
// client can't re-drive. -fsync picks the fsync cadence (batch = fsync
// per ingest request, interval = a 50 ms background tick, off = OS page
// cache only); segments rotate at 64 MiB. On a WAL
// write failure the server degrades to read-only: ingest and
// subscription changes answer 503 + Retry-After while reads keep
// serving, and /healthz reports "degraded".
//
// -fault-schedule installs a deterministic in-process fault injector
// (for chaos drills only; see internal/faultinject for the schedule
// grammar), seeded by -fault-seed. With durability enabled the schedule
// also reaches the WAL's IO failpoints ("wal.append", "wal.sync") via
// disk: actions.
//
// With -debug-addr a second HTTP server exposes net/http/pprof under
// /debug/pprof/ and expvar's runtime memstats under /debug/vars, kept off
// the public port.
// -no-obs drops the registry entirely; every instrumented hot path falls
// back to its no-op fast path.
//
// On SIGINT/SIGTERM the server flushes every subscription's pending
// decisions, drains in-flight requests for up to 10 s and logs the final
// counters before exiting.
package main

import (
	"context"
	"errors"
	_ "expvar"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mqdp/internal/faultinject"
	"mqdp/internal/obs"
	"mqdp/internal/server"
	"mqdp/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dedupDist := flag.Int("dedup", 10, "SimHash hamming threshold for near-duplicate dropping")
	dedupWindow := flag.Int("dedup-window", 8192, "recent posts remembered for deduplication (0 disables)")
	debugAddr := flag.String("debug-addr", "", "listen address for the debug server (pprof, expvar); empty disables")
	noObs := flag.Bool("no-obs", false, "disable the metrics registry (/metrics/prometheus returns 503)")
	faultSchedule := flag.String("fault-schedule", "", "deterministic fault-injection schedule for chaos drills (see internal/faultinject)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic rules in -fault-schedule")
	logFormat := flag.String("log-format", "text", `log output format: "text" or "json"`)
	logLevel := flag.String("log-level", "info", `minimum log level: "debug", "info", "warn" or "error" (debug includes per-request records)`)
	trace := flag.Bool("trace", true, "trace requests end-to-end and serve /debug/traces (needs the registry; -no-obs disables)")
	traceSample := flag.Int("trace-sample", 10, "keep every Nth ordinary trace (errored and slow ones are always kept; 1 keeps all)")
	sloIngest := flag.Duration("slo-ingest", 0, "ingest latency objective, e.g. 50ms (0 disables the ingest SLO)")
	sloPoll := flag.Duration("slo-poll", 0, "emission-poll latency objective (0 disables the poll SLO)")
	sloTarget := flag.Float64("slo-target", 0.99, "availability target for both SLOs, in (0, 1)")
	dataDir := flag.String("data-dir", "", "durability directory for the write-ahead log and snapshots (empty = in-memory only)")
	fsync := flag.String("fsync", "batch", `WAL fsync policy: "batch" (per ingest request), "interval" (50 ms background tick), "off" (OS page cache only)`)
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "periodic state-snapshot cadence; snapshots also happen on graceful shutdown (0 = shutdown only)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	default:
		slog.Error("bad -log-format", "value", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if *sloTarget <= 0 || *sloTarget >= 1 {
		logger.Error("bad -slo-target", "value", *sloTarget, "want", "in (0, 1)")
		os.Exit(2)
	}

	// Everything the flags say goes into one Config; the server reads it
	// once, in New, which also runs recovery when -data-dir is set.
	cfg := server.Config{
		DupDistance: *dedupDist,
		DupWindow:   *dedupWindow,
		Logger:      logger,
	}
	if *faultSchedule != "" {
		inj, err := faultinject.ParseSchedule(*faultSchedule, *faultSeed)
		if err != nil {
			logger.Error("bad -fault-schedule", "err", err)
			os.Exit(2)
		}
		logger.Warn("CHAOS: fault injection active", "schedule", *faultSchedule, "seed", *faultSeed)
		cfg.Faults = inj
	}
	if !*noObs {
		// The server owns the registry and every instrument in it: the
		// solver, stream and index packages observe nothing, and what the
		// server sees of them (matches, emissions, decision delays) it
		// records itself into the /metrics/prometheus exposition.
		reg := obs.NewRegistry()
		if *trace {
			tr := obs.NewTracer(4096)
			tr.SetRetention(100*time.Millisecond, *traceSample)
			reg.SetTracer(tr)
		}
		cfg.Obs = reg
	}
	// SLOs need no registry: JSON /metrics reports them either way, and
	// Register is a no-op under -no-obs.
	if *sloIngest > 0 {
		cfg.SLOIngest = obs.NewSLO("ingest", *sloIngest, *sloTarget)
		cfg.SLOIngest.Register(cfg.Obs)
	}
	if *sloPoll > 0 {
		cfg.SLOPoll = obs.NewSLO("poll", *sloPoll, *sloTarget)
		cfg.SLOPoll.Register(cfg.Obs)
	}
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			logger.Error("bad -fsync", "value", *fsync, "err", err)
			os.Exit(2)
		}
		cfg.Durability = server.DurabilityConfig{
			Dir:              *dataDir,
			Fsync:            policy,
			SnapshotInterval: *snapshotInterval,
		}
	}
	start := time.Now()
	s, err := server.New(cfg)
	if err != nil {
		logger.Error("durability", "dir", *dataDir, "err", err)
		os.Exit(1)
	}
	if m := s.Metrics(); m.Durability != nil {
		logger.Info("recovered state",
			"dir", *dataDir,
			"fsync", *fsync,
			"subscriptions", m.Subscriptions,
			"replayed_records", m.Durability.ReplayedRecords,
			"replayed_posts", m.Durability.ReplayedPosts,
			"repaired_tail_bytes", m.Durability.RepairedBytes,
			"recovery_time", time.Since(start))
	}
	if *debugAddr != "" {
		go func() {
			// pprof and expvar register on http.DefaultServeMux; serving it
			// on its own listener keeps the profiling surface off the
			// public API port.
			dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
			logger.Info("debug server (pprof, expvar) listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}
	h := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(s),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Listen explicitly so the resolved address (e.g. a kernel-assigned
	// port under ":0") is known — and logged — before serving starts;
	// harness processes scrape it to find the server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("mqdp-server listening",
			"addr", ln.Addr().String(),
			"dedup_distance", *dedupDist,
			"dedup_window", *dedupWindow,
			"durability", *dataDir != "",
			"tracing", !*noObs && *trace)
		errc <- h.Serve(ln)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	logger.Info("shutting down: flushing subscriptions, draining connections")
	// Flush BEFORE draining: flushing forces every pending decision out and
	// terminates each subscription's hub, so live SSE streams and blocked
	// long-polls receive their terminal end event and finish. Draining
	// first would park on those never-ending streams until the timeout.
	s.Flush()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("drain", "err", err)
	}
	// Final snapshot + WAL close: a graceful restart recovers from the
	// snapshot alone, with zero records to replay.
	if err := s.Close(); err != nil {
		logger.Warn("durability close", "err", err)
	}
	m := s.Metrics()
	logger.Info("final counters",
		"ingested", m.Ingested,
		"dropped_duplicates", m.DroppedDups,
		"subscriptions", m.Subscriptions,
		"emitted", m.EmittedTotal,
		"text_misses", m.TextMisses)
}
