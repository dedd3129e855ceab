package main

import "sort"

// metricDef names one metric. BENCHMARK.json at the repository root carries
// the same names, units and bounds; the package test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd is what a user of the server sees, reported by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_posts_per_s", "posts/s", "higher", 0.25},
	{"server_cpu_us_per_post", "us", "lower", 0.25},
	{"deliver_p50_ms", "ms", "lower", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"server_rss_peak_mb", "MB", "lower", 0.15},
}

// perLayer is informational: one layer each, reported by a traced run, zero
// where a layer does no work on a workload.
var perLayer = []metricDef{
	{name: "wire.json_decode_us_per_post", unit: "us", better: "lower"},
	{name: "wire.binary_decode_us_per_post", unit: "us", better: "lower"},
	{name: "wire.decode_allocs_per_post", unit: "count", better: "lower"},
	{name: "wire.bytes_per_post", unit: "bytes", better: "lower"},
	{name: "wire.binary_vs_json_posts_per_s", unit: "ratio", better: "higher"},
	{name: "simhash.offer_us_per_post", unit: "us", better: "lower"},
	{name: "simhash.dropped_share", unit: "share", better: "higher"},
	{name: "textutil.tokenize_us_per_post", unit: "us", better: "lower"},
	{name: "textutil.words_per_post", unit: "count", better: "lower"},
	{name: "route.candidates_us_per_post", unit: "us", better: "lower"},
	{name: "route.candidates_per_post", unit: "count", better: "lower"},
	{name: "route.useful_share", unit: "share", better: "higher"},
	{name: "route.add_us_per_sub", unit: "us", better: "lower"},
	{name: "match.match_us_per_candidate", unit: "us", better: "lower"},
	{name: "match.matched_per_post", unit: "count", better: "lower"},
	{name: "stream.process_us_per_match", unit: "us", better: "lower"},
	{name: "stream.emitted_per_matched", unit: "ratio", better: "lower"},
	{name: "stream.delay_max_s", unit: "s", better: "lower"},
	{name: "stream.cover_vs_scan", unit: "ratio", better: "lower"},
	{name: "core.scan_us_per_post", unit: "us", better: "lower"},
	{name: "core.verify_us_per_post", unit: "us", better: "lower"},
	{name: "wal.append_us_per_batch", unit: "us", better: "lower"},
	{name: "wal.sync_us_per_batch", unit: "us", better: "lower"},
	{name: "wal.bytes_per_post", unit: "bytes", better: "lower"},
	{name: "wal.replay_us_per_post", unit: "us", better: "lower"},
	{name: "obs.registry_cpu_share", unit: "share", better: "lower"},
	{name: "obs.trace_cpu_share", unit: "share", better: "lower"},
	{name: "server.self_us_per_post", unit: "us", better: "lower"},
	{name: "server.unattributed_share", unit: "share", better: "lower"},
	{name: "server.ctxsw_per_kpost", unit: "count", better: "lower"},
	{name: "server.alloc_bytes_per_post", unit: "bytes", better: "lower"},
	{name: "server.gc_cycles", unit: "count", better: "lower"},
	{name: "server.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "server.subscribe_ms_p50", unit: "ms", better: "lower"},
	{name: "server.poll_ms_p50", unit: "ms", better: "lower"},
	{name: "server.graceful_stop_ms", unit: "ms", better: "lower"},
	{name: "server.sse_gap_events", unit: "count", better: "lower"},
	{name: "loadgen.send_late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.backlog_max_batches", unit: "count", better: "lower"},
	{name: "loadgen.cpu_share", unit: "share", better: "lower"},
	{name: "loadgen.trace_overhead_share", unit: "share", better: "lower"},
	{name: "loadgen.build_s", unit: "s", better: "lower"},
	// Demoted from the end-to-end list, keeping their names. recovery_s
	// exists on durable_batch8 only, and an end-to-end metric must be
	// reported, non-zero, on every workload. The two p99s ride on the few
	// garbage collections a ten-second phase contains and spread 13-40%
	// between runs of one commit, wider than any bound could be.
	{name: "recovery_s", unit: "s", better: "lower"},
	{name: "deliver_p99_ms", unit: "ms", better: "lower"},
	{name: "ack_p99_ms", unit: "ms", better: "lower"},
}

func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
