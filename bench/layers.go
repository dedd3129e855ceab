package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// layerMetrics turns the reference passes (the oracle, one with spans, one
// plain) and the server run into the per-layer numbers, and returns the
// spans to write out.
func layerMetrics(cfg *runConfig, in *inputs, ref, traced, plain *reference, cover coverResult, m *measured, res *runResult) (map[string]float64, []span, error) {
	sp := cfg.spec
	layer := map[string]float64{}
	admitted := float64(traced.posts - traced.dropped)
	posts := float64(traced.posts)
	per := func(d time.Duration, n float64) float64 { return ratio(us(d), n) }

	wr, err := measureWire(in)
	if err != nil {
		return nil, nil, err
	}
	layer["wire.json_decode_us_per_post"] = wr.jsonUs
	layer["wire.binary_decode_us_per_post"] = wr.binaryUs
	layer["wire.decode_allocs_per_post"] = wr.allocs
	layer["wire.bytes_per_post"] = wr.bytes
	layer["simhash.offer_us_per_post"] = per(traced.busy[lSimhash], posts)
	layer["simhash.dropped_share"] = ratio(float64(traced.dropped), posts)
	layer["textutil.tokenize_us_per_post"] = per(traced.busy[lTokenize], admitted)
	layer["textutil.words_per_post"] = ratio(float64(traced.words), admitted)
	layer["route.candidates_us_per_post"] = per(traced.busy[lRoute], admitted)
	layer["route.candidates_per_post"] = ratio(float64(traced.candidates), admitted)
	layer["route.useful_share"] = ratio(float64(traced.matches), float64(traced.candidates))
	layer["route.add_us_per_sub"] = per(traced.addBusy, float64(traced.adds))
	layer["match.match_us_per_candidate"] = per(traced.busy[lMatch], float64(traced.candidates))
	layer["match.matched_per_post"] = ratio(float64(traced.matches), admitted)
	layer["stream.process_us_per_match"] = per(traced.busy[lProcess], float64(traced.matches))
	layer["stream.emitted_per_matched"] = ratio(float64(traced.emitted), float64(traced.matches))
	layer["stream.delay_max_s"] = ref.maxDelay
	layer["stream.cover_vs_scan"] = ratio(float64(cover.emitted), float64(cover.scanCover))
	layer["core.scan_us_per_post"] = per(cover.scanBusy, float64(cover.posts))
	layer["core.verify_us_per_post"] = per(cover.verifyBusy, float64(cover.posts))

	spans := traced.spans
	layerBusy := time.Duration(0)
	for l := lDecode; l <= lProcess; l++ {
		layerBusy += traced.busy[l]
	}
	if sp.durable {
		dir := filepath.Join(outDir(cfg.root), "tmp", fmt.Sprintf("%s-%d-ref", sp.name, selfPid))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		wl, err := measureWAL(in, dir, traced.t0)
		if err != nil {
			return nil, nil, fmt.Errorf("reference WAL: %w", err)
		}
		layer["wal.append_us_per_batch"] = per(wl.appendBusy, float64(wl.batches))
		layer["wal.sync_us_per_batch"] = per(wl.syncBusy, float64(wl.batches))
		layer["wal.bytes_per_post"] = ratio(float64(wl.bytes), float64(wl.posts))
		layer["wal.replay_us_per_post"] = per(wl.replayBusy, float64(wl.posts))
		// The fsync is waiting, not work: only the append counts as busy.
		layerBusy += wl.appendBusy
		spans = append(spans, wl.spans...)
	}
	layer["recovery_s"] = m.recoveryS
	layer["deliver_p99_ms"] = percentile(m.deliver, 0.99)
	layer["ack_p99_ms"] = percentile(m.paced.ackMs, 0.99)

	self := m.cpuPerPost() - per(layerBusy, posts)
	layer["server.self_us_per_post"] = self
	layer["server.unattributed_share"] = ratio(self, m.cpuPerPost())
	layer["server.ctxsw_per_kpost"] = ratio(float64(m.sat.ctxSwitch)*1000, float64(m.sat.posts))
	layer["server.alloc_bytes_per_post"] = ratio(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc), float64(m.sat.posts))
	layer["server.gc_cycles"] = float64(m.mem1.NumGC - m.mem0.NumGC)
	layer["server.gc_pause_ms"] = float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	layer["server.subscribe_ms_p50"] = percentile(m.subMs, 0.50)
	layer["server.poll_ms_p50"] = percentile(m.pollMs, 0.50)
	layer["server.graceful_stop_ms"] = m.stopMs
	layer["server.sse_gap_events"] = float64(m.gaps)
	res.Samples["subscribe"] = len(m.subMs)
	res.Samples["poll"] = len(m.pollMs)

	layer["loadgen.send_late_p99_ms"] = percentile(m.paced.lateMs, 0.99)
	layer["loadgen.backlog_max_batches"] = float64(m.paced.backlog)
	layer["loadgen.cpu_share"] = m.sat.loadgenCPU.Seconds() / m.sat.wall.Seconds()
	layer["loadgen.trace_overhead_share"] = ratio(traced.wall.Seconds()-plain.wall.Seconds(), plain.wall.Seconds())
	layer["loadgen.build_s"] = cfg.buildS

	if sp.name == "dense_instant" {
		if err := measureVariants(cfg, in, layer, res); err != nil {
			return nil, nil, err
		}
	}
	return layer, spans, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memStats is the part of expvar's "memstats" the harness reads.
type memStats struct {
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

func readMemStats(debugAddr string) (memStats, error) {
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	var err error
	// The debug listener starts on its own goroutine; give it a moment.
	for try := 0; try < 200; try++ {
		var resp *http.Response
		if resp, err = http.Get("http://" + debugAddr + "/debug/vars"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&vars)
			resp.Body.Close()
			return vars.Memstats, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return vars.Memstats, fmt.Errorf("expvar on %s: %w", debugAddr, err)
}

// measureVariants repeats dense_instant's saturation phase on fresh servers:
// default flags, -no-obs, -trace-sample 1, and default flags fed binary
// frames. A flag the binary no longer has yields not_measured, not an error.
func measureVariants(cfg *runConfig, in *inputs, layer map[string]float64, res *runResult) error {
	n := max(1, in.sat/4)
	from := in.warm
	bin := *in
	bin.spec = &spec{}
	*bin.spec = *in.spec
	bin.spec.binary = true
	bin.bodies = make([][]byte, from+n)
	for k := range bin.bodies {
		body, err := encodeBatch(in.batchPosts(k), true)
		if err != nil {
			return err
		}
		bin.bodies[k] = body
	}
	one := func(in *inputs, extra ...string) (*satResult, error) {
		sess, err := setUp(cfg, in, len(in.posts), extra...)
		if err != nil {
			return nil, err
		}
		defer sess.close()
		return runSaturation(sess.c, in, sess.proc.pid(), from, n)
	}
	cpu := func(r *satResult) float64 { return us(r.serverCPU) / float64(r.posts) }
	base, err := one(in)
	if err != nil {
		return err
	}
	for _, v := range []struct {
		metric string
		flag   []string
		sign   float64
	}{
		{"obs.registry_cpu_share", []string{"-no-obs"}, -1},
		{"obs.trace_cpu_share", []string{"-trace-sample", "1"}, 1},
	} {
		r, err := one(in, v.flag...)
		if errors.Is(err, errBadFlag) {
			res.NotMeasured = append(res.NotMeasured, v.metric)
			continue
		}
		if err != nil {
			return err
		}
		layer[v.metric] = v.sign * (cpu(r) - cpu(base)) / cpu(base)
	}
	rb, err := one(&bin)
	if err != nil {
		return err
	}
	layer["wire.binary_vs_json_posts_per_s"] = (float64(rb.posts) / rb.wall.Seconds()) / (float64(base.posts) / base.wall.Seconds())
	return nil
}

func writeTrace(cfg *runConfig, spans []span) error {
	path := filepath.Join(outDir(cfg.root), "trace-"+cfg.spec.name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.spec.name, cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
