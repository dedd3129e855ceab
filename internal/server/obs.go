package server

import (
	"mqdp/internal/obs"
)

// serverObs bundles the service-level instruments. A nil pointer is the
// disabled state; the ingest and poll paths pay one branch per call.
// Per-subscription counters (matched, emitted, misses, delay histogram)
// live on the subscription itself and work with or without a registry; the
// service totals here are their registry-visible sums, incremented
// alongside.
type serverObs struct {
	tracer        *obs.Tracer    // request tracer; nil when the registry has none
	ingestBatch   *obs.Histogram // one applied ingest batch: admission + fan-out of every post
	routingCands  *obs.Histogram // candidate subscriptions per routed post (fan-out size)
	pollTime      *obs.Histogram // one Emissions poll
	subs          *obs.Gauge
	matched       *obs.Counter
	emitted       *obs.Counter
	misses        *obs.Counter
	quarantined   *obs.Gauge
	activeStreams *obs.Gauge
	walAppendTime *obs.Histogram // one WAL record framed + buffered
	walSyncTime   *obs.Histogram // one WAL commit (flush + fsync per policy)
	snapshotTime  *obs.Histogram // one full state snapshot (encode + atomic write)
	decisionDelay *obs.Histogram // event-time EmitAt − Post.Value per delivered emission
}

// newServerObs wires s's instruments into r.
func newServerObs(s *Server, r *obs.Registry) *serverObs {
	r.RegisterCounter("mqdp_server_ingested_total", "posts accepted by ingest", &s.ingested)
	r.RegisterCounter("mqdp_server_dropped_duplicates_total", "posts dropped as near-duplicates before fan-out", &s.dropped)
	r.RegisterCounter("mqdp_server_quarantines_total", "subscriptions isolated after a pipeline panic", &s.quarantines)
	r.RegisterCounter("mqdp_server_pushed_total", "emissions delivered over push streams", &s.pushed)
	r.RegisterCounter("mqdp_server_gaps_total", "emission gaps reported to clients (stale cursors across poll, long-poll and SSE)", &s.gaps)
	r.RegisterCounter("mqdp_server_routing_skipped_total", "subscriptions skipped by inverted routing (no keyword of theirs in the post)", &s.routingSkipped)
	r.RegisterCounter("mqdp_server_wal_records_total", "records appended to the write-ahead log", &s.walRecords)
	r.RegisterCounter("mqdp_server_wal_snapshots_total", "state snapshots written by the durability layer", &s.walSnapshots)
	return &serverObs{
		tracer:        r.Tracer(),
		ingestBatch:   r.Histogram("mqdp_server_ingest_batch_seconds", "wall time applying one ingest batch: admission and fan-out of every post", obs.TimeBuckets),
		routingCands:  r.Histogram("mqdp_server_routing_candidates", "candidate subscriptions fed per routed post after the inverted-index merge", obs.ExpBuckets(1, 4, 10)),
		pollTime:      r.Histogram("mqdp_server_emission_poll_seconds", "wall time of one emission poll", obs.TimeBuckets),
		subs:          r.Gauge("mqdp_server_subscriptions", "registered subscriptions"),
		matched:       r.Counter("mqdp_server_matched_total", "post-subscription matches across all profiles"),
		emitted:       r.Counter("mqdp_server_emitted_total", "emissions delivered across all profiles"),
		misses:        r.Counter("mqdp_server_text_misses_total", "decisions whose held post was dropped before they landed"),
		quarantined:   r.Gauge("mqdp_server_quarantined_subscriptions", "currently quarantined subscriptions"),
		activeStreams: r.Gauge("mqdp_server_active_push_streams", "currently served push waiters (SSE streams and blocked long-polls)"),
		walAppendTime: r.Histogram("mqdp_server_wal_append_seconds", "wall time framing one WAL record into the segment buffer", obs.TimeBuckets),
		walSyncTime:   r.Histogram("mqdp_server_wal_commit_seconds", "wall time of one WAL commit (buffer flush plus fsync per policy)", obs.TimeBuckets),
		snapshotTime:  r.Histogram("mqdp_server_snapshot_seconds", "wall time of one durability snapshot (encode plus atomic write)", obs.TimeBuckets),
		decisionDelay: r.Histogram("mqdp_stream_decision_delay_seconds", "event-time reporting delay of emitted posts (EmitAt - value)", obs.DelayBuckets),
	}
}

// onMatch, onEmit and onMiss bump the service totals. Safe on nil receivers.
func (o *serverObs) onMatch() {
	if o != nil {
		o.matched.Inc()
	}
}

// onEmit also records the emission's decision delay, with its originating
// trace offered as the histogram's exemplar.
func (o *serverObs) onEmit(delay float64, trace obs.TraceID) {
	if o != nil {
		o.emitted.Inc()
		o.decisionDelay.ObserveTraced(delay, trace)
	}
}

func (o *serverObs) onMiss() {
	if o != nil {
		o.misses.Inc()
	}
}

// onQuarantine moves the gauge of registered quarantined subscriptions by
// delta: +1 on a latch, -1 when a quarantined subscription is removed.
func (o *serverObs) onQuarantine(delta float64) {
	if o != nil {
		o.quarantined.Add(delta)
	}
}
