package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var selfPid = os.Getpid()

// minDeliveries is how many sentinel emissions a full-scale paced phase
// must trigger, so that p99 has at least ten samples beyond it.
const minDeliveries = 1000

// runConfig is one workload run.
type runConfig struct {
	spec    *spec
	scale   scale
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root
	bin     string // server binary
	buildS  float64
	log     io.Writer

	// dropExpected removes one emission from the reference's expectation, so
	// a test can see the oracle fail. Nothing but the test sets it.
	dropExpected bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run as it is stored in a result file. Its first four
// fields, alone, are the line the driver reads from standard output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Flags       []string           `json:"flags,omitempty"`
	NotMeasured []string           `json:"not_measured,omitempty"`
	Samples     map[string]int     `json:"samples"`
	Info        map[string]float64 `json:"info"`
}

// session is one live server with the harness's two connections to it.
type session struct {
	proc      *serverProc
	c         *client
	sse       *sseStream
	args      []string
	dataDir   string
	debugAddr string
	subMs     []float64
}

// close kills what is left of the session and removes its data directory.
func (s *session) close() {
	if s.sse != nil {
		s.sse.close()
	}
	if s.c != nil {
		s.c.close()
	}
	if s.proc != nil && !s.proc.exited() {
		s.proc.kill()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

var dirSeq int

// setUp is the timed part of set-up that involves the server: start it,
// wait for /healthz, register every subscription, attach the SSE stream to
// the sentinel and push the warm-up batches through.
func setUp(cfg *runConfig, in *inputs, sseCap int, extra ...string) (*session, error) {
	s := &session{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	s.args = append(s.args, extra...)
	if cfg.spec.durable {
		dirSeq++
		s.dataDir = filepath.Join(outDir(cfg.root), "tmp", fmt.Sprintf("%s-%d-%d", cfg.spec.name, selfPid, dirSeq))
		if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
			return nil, err
		}
		s.args = append(s.args, "-data-dir", s.dataDir, "-fsync", "batch", "-snapshot-interval", "0")
	}
	if cfg.trace {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		s.debugAddr = addr
		s.args = append(s.args, "-debug-addr", addr)
	}
	var err error
	if s.proc, err = startServer(cfg.bin, s.args...); err != nil {
		return nil, err
	}
	s.c = newClient(s.proc.addr)
	if err := s.c.waitHealthy(0); err != nil {
		return nil, err
	}
	for i, body := range in.subBodies {
		t := time.Now()
		id, err := s.c.subscribe(body)
		if err != nil {
			return nil, err
		}
		if id != int64(i+1) {
			return nil, fmt.Errorf("subscription %d got id %d", i+1, id)
		}
		s.subMs = append(s.subMs, ms(time.Since(t)))
	}
	if s.sse, err = attachSSE(s.proc.addr, 1, sseCap); err != nil {
		return nil, err
	}
	for k := 0; k < in.warm; k++ {
		if err := s.c.ingest(in, k); err != nil {
			return nil, err
		}
		if err := s.c.churn(in, k); err != nil {
			return nil, err
		}
	}
	ok = true
	return s, nil
}

// waitHealthy polls /healthz until it answers ok with at least subs
// subscriptions registered.
func (c *client) waitHealthy(subs int) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var h struct {
			Status        string `json:"status"`
			Subscriptions int    `json:"subscriptions"`
		}
		err := c.getJSON("/healthz", &h)
		if err == nil && h.Status == "ok" && h.Subscriptions >= subs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 120s (status %q, %d subscriptions, err %v)", h.Status, h.Subscriptions, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// measured is what the server phases of one run produced.
type measured struct {
	setupS     float64
	paced      *pacedResult
	deliver    []float64 // ms, one per sentinel emission the paced phase triggered and the stream delivered
	sat        *satResult
	rssMB      float64
	mem0, mem1 memStats // around the saturation phase, traced run only
	recoveryS  float64
	stopMs     float64
	gaps       int64
	subMs      []float64
	pollMs     []float64
}

// run executes one workload once and returns its metrics, or an error when
// a request failed or the oracle found a mismatch.
func run(cfg *runConfig) (*runResult, error) {
	sp, sc := cfg.spec, cfg.scale
	res := &runResult{
		Workload: sp.name, Seed: cfg.seed, Metrics: map[string]metric{},
		Samples: map[string]int{}, Flags: readEnv(cfg.root).flags(),
	}
	if cfg.trace {
		res.Trace = 1
	}

	// Inputs, from the seed alone.
	t := time.Now()
	in, err := generate(sp, sc, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t).Seconds()
	fmt.Fprintf(cfg.log, "%s seed %d: %d posts in %d+%d+%d batches of %d, %d subscriptions, generated in %.2fs\n",
		sp.name, cfg.seed, len(in.posts), in.warm, in.paced, in.sat, sp.batch, len(in.subs), genS)

	// The oracle, and in a traced run the per-layer spans. Only the oracle
	// pass keeps emissions, so the cost of spans is taken between two further
	// passes that do the same work, one with spans and one without.
	ref, err := runReference(in, false, true)
	if err != nil {
		return nil, err
	}
	traced, plain := ref, ref
	if cfg.trace {
		if traced, err = runReference(in, true, false); err != nil {
			return nil, err
		}
		if plain, err = runReference(in, false, false); err != nil {
			return nil, err
		}
		if traced.emitted != ref.emitted || traced.matches != ref.matches {
			return nil, fmt.Errorf("reference pipeline is not deterministic: %d/%d emissions, %d/%d matches", traced.emitted, ref.emitted, traced.matches, ref.matches)
		}
	}
	cover, err := ref.verifyCovers(cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// Event times are i/eventRate, so a deadline can overshoot τ by rounding.
	if ref.maxDelay > sp.tau+1e-6 {
		return nil, fmt.Errorf("oracle: an emission was decided %.3fs after its post, τ is %v", ref.maxDelay, sp.tau)
	}
	sentinel := ref.subs[0]
	if cfg.dropExpected {
		sentinel.emissions = sentinel.emissions[:len(sentinel.emissions)-1]
	}
	// Sentinel emissions triggered up to the end of each phase.
	batchOf := func(j int) int { return int(sentinel.trigger[j]) / sp.batch }
	nTrig := len(sentinel.trigger)
	seqAfterWarm := sort.Search(nTrig, func(j int) bool { return batchOf(j) >= in.warm })
	seqAfterPaced := sort.Search(nTrig, func(j int) bool { return batchOf(j) >= in.warm+in.paced })
	res.Samples["deliver"] = seqAfterPaced - seqAfterWarm
	if sc.name == "full" && cfg.seconds >= defaultSeconds && res.Samples["deliver"] < minDeliveries {
		return nil, fmt.Errorf("paced phase triggers %d sentinel emissions, p99 needs %d", res.Samples["deliver"], minDeliveries)
	}
	for _, sub := range ref.subs {
		if sub.verified && sub.emitted > 65536 {
			return nil, fmt.Errorf("verified subscription %d emits %d, more than the server's 65,536-entry ring", sub.id, sub.emitted)
		}
	}
	runtime.GC()

	// Set-up, several times over; the last server is the one measured.
	var sess *session
	var setups []float64
	nSetups := 1
	if sc.name == "full" {
		nSetups = sp.setups
	}
	for i := 0; i < nSetups; i++ {
		if sess != nil {
			sess.close()
		}
		t = time.Now()
		// The sentinel cannot emit more than it matched, flush included.
		if sess, err = setUp(cfg, in, int(sentinel.matched)+1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { sess.close() }()
	m := &measured{setupS: genS + median(setups), subMs: sess.subMs}
	c, sse, pid := sess.c, sess.sse, sess.proc.pid()

	// Paced phase, open loop.
	if m.paced, err = runPaced(c, in, sc); err != nil {
		return nil, err
	}
	// Every sentinel emission the phase triggered is an operation; one that
	// has not arrived a second after the phase's last ack is a failed one.
	sse.waitFor(int64(seqAfterPaced), time.Second)
	undelivered := int64(0)
	for j := seqAfterWarm; j < seqAfterPaced; j++ {
		if int64(j) >= sse.last.Load() {
			undelivered++
			continue
		}
		m.deliver = append(m.deliver, float64(sse.at[j]-m.paced.due[batchOf(j)-in.warm])/1e6)
	}
	if last := m.paced.lateMs[len(m.paced.lateMs)-1]; last > 1000 {
		res.Flags = append(res.Flags, "overloaded")
	}

	// Saturation phase, closed loop.
	if cfg.trace {
		if m.mem0, err = readMemStats(sess.debugAddr); err != nil {
			return nil, err
		}
	}
	if m.sat, err = runSaturation(c, in, pid, in.warm+in.paced, in.sat); err != nil {
		return nil, err
	}
	if m.rssMB, err = rssPeakMB(pid); err != nil {
		return nil, err
	}
	if cfg.trace {
		if m.mem1, err = readMemStats(sess.debugAddr); err != nil {
			return nil, err
		}
	}
	loadgenShare := m.sat.loadgenCPU.Seconds() / m.sat.wall.Seconds()
	if loadgenShare > 0.8 {
		res.Flags = append(res.Flags, "generator_bound")
	}

	// Verification. The durable workload is killed right after its last ack
	// and must come back byte-identical; the others are verified live.
	if sp.durable {
		sse.close()
		sess.proc.kill()
		c.close()
		restart := time.Now()
		if sess.proc, err = startServer(cfg.bin, sess.args...); err != nil {
			return nil, err
		}
		sess.c = newClient(sess.proc.addr)
		sess.c.attempted, sess.c.failed = c.attempted, c.failed
		c = sess.c
		if err := c.waitHealthy(len(in.subs)); err != nil {
			return nil, err
		}
		m.recoveryS = time.Since(restart).Seconds()
	} else if !sse.waitFor(int64(nTrig), 10*time.Second) {
		undelivered += int64(nTrig) - sse.last.Load()
	}
	if m.pollMs, err = checkServer(c, ref); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	m.stopMs = ms(sess.proc.stop())
	<-sse.done
	if sse.err != nil {
		return nil, fmt.Errorf("SSE stream: %w", sse.err)
	}
	m.gaps = sse.gaps.Load()

	res.Correct = true
	res.Attempted = c.attempted + int64(res.Samples["deliver"])
	res.Failed = c.failed + undelivered + m.gaps
	res.Samples["ack"] = len(m.paced.ackMs)
	res.Info = map[string]float64{
		"reference_s":       ref.wall.Seconds(),
		"paced_s":           m.paced.duration.Seconds(),
		"saturation_s":      m.sat.wall.Seconds(),
		"recovery_s":        m.recoveryS,
		"loadgen_cpu_share": loadgenShare,
	}
	e2e := map[string]float64{
		"setup_s":                m.setupS,
		"ingest_posts_per_s":     float64(m.sat.posts) / m.sat.wall.Seconds(),
		"server_cpu_us_per_post": m.cpuPerPost(),
		"deliver_p50_ms":         percentile(m.deliver, 0.50),
		"ack_p50_ms":             percentile(m.paced.ackMs, 0.50),
		"server_rss_peak_mb":     m.rssMB,
	}
	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		return res, nil
	}
	layer, spans, err := layerMetrics(cfg, in, ref, traced, plain, cover, m, res)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{layer[d.name], d.unit}
	}
	return res, writeTrace(cfg, spans)
}

func (m *measured) cpuPerPost() float64 { return us(m.sat.serverCPU) / float64(m.sat.posts) }
