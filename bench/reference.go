package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/match"
	"mqdp/internal/route"
	"mqdp/internal/simhash"
	"mqdp/internal/textutil"
	"mqdp/internal/wal"
	"mqdp/internal/wire"
)

// The reference pipeline: a serial, batch-at-a-time reassembly of the
// server's ingest path from the layers' public functions alone. Its output
// is the oracle (the emission sequence every subscription must deliver); its
// spans, one per (batch, layer), are the per-layer busy times. It shares no
// code with internal/server, so a server change cannot silently move it.

// Layers, in pipeline order. The names are the span names in the trace file.
const (
	lDecode = iota
	lSimhash
	lTokenize
	lRoute
	lMatch
	lProcess
	lWalAppend
	lWalSync
	nLayers
)

var layerNames = [nLayers]string{"wire.decode", "simhash.offer", "textutil.tokenize", "route.candidates", "match.match", "stream.process", "wal.append", "wal.sync"}

// span is one (batch, layer) interval. Every span's parent is the batch span
// of the same Batch index, which is the identifier the spans of one request
// share.
type span struct {
	Name    string `json:"name"`
	Batch   int    `json:"batch"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// emission is the server's documented emission shape; the oracle compares
// its JSON encoding byte for byte with what the server returns.
type emission struct {
	Seq    int64    `json:"seq"`
	PostID int64    `json:"post_id"`
	Time   float64  `json:"time"`
	Text   string   `json:"text"`
	Topics []string `json:"topics"`
	EmitAt float64  `json:"emit_at"`
}

type refSub struct {
	id       int64
	matcher  *match.Matcher
	syms     []uint32
	proc     mqdp.Processor
	labelBuf []core.Label
	lambda   float64

	matched, emitted int64

	// Kept only for the verified sample.
	verified  bool
	emissions []emission
	posts     []core.Post // every matched post, for cover verification
	// trigger[i] is the index of the post whose Process call returned
	// emissions[i]; kept for the sentinel, whose SSE stream is timed.
	trigger []int32
}

type refMatch struct {
	post   int32 // index into the batch
	sub    *refSub
	labels []core.Label
}

type reference struct {
	in    *inputs
	subs  []*refSub
	table *route.Table
	index *route.Index[*refSub]
	dedup *simhash.Deduper

	trace bool
	t0    time.Time
	spans []span
	busy  [nLayers]time.Duration

	posts, dropped, words, candidates, matches, emitted int64
	maxDelay                                            float64
	adds                                                int64
	addBusy                                             time.Duration
	wall                                                time.Duration
	nextID                                              int64

	// Batch scratch, reused.
	decoded  []wire.StreamPost
	jsonBuf  []jsonPost
	keep     []bool
	wordBuf  []string
	wordOff  []int
	symBuf   []uint32
	symOff   []int
	candBuf  []route.Entry[*refSub]
	candOff  []int
	matchBuf []refMatch
}

// verifiedSample is how many subscriptions the oracle polls in full.
const verifiedSample = 64

func newRefSub(id int64, r subReq, table *route.Table) (*refSub, error) {
	m, err := match.NewMatcher(r.Topics)
	if err != nil {
		return nil, err
	}
	algo, err := parseAlgo(r.Algorithm)
	if err != nil {
		return nil, err
	}
	proc, err := mqdp.NewStream(algo, m.NumTopics(), r.Lambda, r.Tau)
	if err != nil {
		return nil, err
	}
	return &refSub{id: id, matcher: m, syms: m.CompileSymbols(table), proc: proc, lambda: r.Lambda}, nil
}

func parseAlgo(name string) (mqdp.StreamAlgorithm, error) {
	switch name {
	case "streamscan+":
		return mqdp.StreamScanPlus, nil
	case "streamscan":
		return mqdp.StreamScan, nil
	case "streamgreedy":
		return mqdp.StreamGreedy, nil
	case "streamgreedy+":
		return mqdp.StreamGreedyPlus, nil
	case "instant":
		return mqdp.Instant, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// runReference replays every batch of in through the pipeline. With trace
// set it also records one span per (batch, layer); with oracle set it keeps
// the emissions and matched posts of the verified sample.
func runReference(in *inputs, trace, oracle bool) (*reference, error) {
	r := &reference{
		in:    in,
		table: route.NewTable(),
		index: route.NewIndex[*refSub](),
		dedup: simhash.NewDeduper(10, 8192), // the server's -dedup / -dedup-window defaults
		trace: trace,
		t0:    time.Now(),
	}
	for i, req := range in.subs {
		sub, err := newRefSub(int64(i+1), req, r.table)
		if err != nil {
			return nil, fmt.Errorf("reference: subscription %d: %w", i+1, err)
		}
		r.subs = append(r.subs, sub)
		r.add(sub)
	}
	r.nextID = int64(len(r.subs)) + 1
	for _, i := range sampleSubs(len(r.subs), in.seed) {
		r.subs[i].verified = oracle
	}
	start := time.Now()
	for k := range in.bodies {
		if err := r.batch(k); err != nil {
			return nil, fmt.Errorf("reference: batch %d: %w", k, err)
		}
		if err := r.churn(k); err != nil {
			return nil, err
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

// sampleSubs picks the subscriptions the oracle polls in full: all of them
// when there are few, else the sentinel plus a seeded draw from the rest.
func sampleSubs(n int, seed int64) []int {
	if n <= verifiedSample {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0}
	for _, i := range rand.New(rand.NewSource(seed ^ 0x0dac1e)).Perm(n - 1)[:verifiedSample-1] {
		out = append(out, i+1)
	}
	sort.Ints(out)
	return out
}

func (r *reference) add(sub *refSub) {
	var t time.Time
	if r.trace {
		t = time.Now()
	}
	r.index.Add(sub.id, sub, sub.syms)
	if r.trace {
		r.addBusy += time.Since(t)
	}
	r.adds++
}

// churn mirrors the producer's subscribe/DELETE pair after batch k. The
// fresh profile sees no post, so only the routing index feels it.
func (r *reference) churn(k int) error {
	body := r.in.churnAfter(k)
	if body == nil {
		return nil
	}
	var req subReq
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	sub, err := newRefSub(r.nextID, req, r.table)
	if err != nil {
		return err
	}
	r.nextID++
	r.add(sub)
	r.index.Remove(sub.id, sub.syms)
	return nil
}

// mark closes the span of one layer for batch k and returns the new start.
func (r *reference) mark(layer, k int, start time.Time) time.Time {
	if !r.trace {
		return start
	}
	now := time.Now()
	r.busy[layer] += now.Sub(start)
	r.spans = append(r.spans, span{Name: layerNames[layer], Batch: k, Parent: "batch", StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: now.Sub(r.t0).Nanoseconds()})
	return now
}

func (r *reference) batch(k int) error {
	var t, batchStart time.Time
	if r.trace {
		t = time.Now()
		batchStart = t
	}

	// wire: decode the exact bytes the producer sends.
	posts, err := r.decode(r.in.bodies[k])
	if err != nil {
		return err
	}
	t = r.mark(lDecode, k, t)

	// simhash: near-duplicate admission.
	r.keep = r.keep[:0]
	for i := range posts {
		ok := r.dedup.Offer(posts[i].Text)
		r.keep = append(r.keep, ok)
		if !ok {
			r.dropped++
		}
	}
	r.posts += int64(len(posts))
	t = r.mark(lSimhash, k, t)

	// textutil: tokenize each admitted post once.
	r.wordBuf, r.wordOff = r.wordBuf[:0], r.wordOff[:0]
	for i := range posts {
		r.wordOff = append(r.wordOff, len(r.wordBuf))
		if r.keep[i] {
			r.wordBuf = textutil.AppendWords(r.wordBuf, posts[i].Text)
		}
	}
	r.wordOff = append(r.wordOff, len(r.wordBuf))
	r.words += int64(len(r.wordBuf))
	t = r.mark(lTokenize, k, t)

	// route: tokens → symbols → candidate subscriptions.
	r.symBuf, r.symOff = r.symBuf[:0], r.symOff[:0]
	r.candBuf, r.candOff = r.candBuf[:0], r.candOff[:0]
	for i := range posts {
		lo := len(r.symBuf)
		r.symOff = append(r.symOff, lo)
		r.candOff = append(r.candOff, len(r.candBuf))
		if !r.keep[i] {
			continue
		}
		r.symBuf = r.table.AppendSyms(r.symBuf, r.wordBuf[r.wordOff[i]:r.wordOff[i+1]])
		r.symBuf = r.symBuf[:lo+len(route.DedupSyms(r.symBuf[lo:]))]
		r.candBuf = r.index.Candidates(r.candBuf, r.symBuf[lo:])
	}
	r.symOff = append(r.symOff, len(r.symBuf))
	r.candOff = append(r.candOff, len(r.candBuf))
	r.candidates += int64(len(r.candBuf))
	t = r.mark(lRoute, k, t)

	// match: each candidate's own matcher is the ground truth.
	r.matchBuf = r.matchBuf[:0]
	for i := range posts {
		syms := r.symBuf[r.symOff[i]:r.symOff[i+1]]
		for _, c := range r.candBuf[r.candOff[i]:r.candOff[i+1]] {
			sub := c.V
			labels := sub.matcher.MatchSymbolsInto(sub.labelBuf, syms)
			if labels != nil {
				sub.labelBuf = labels[:0]
			}
			if len(labels) == 0 {
				continue
			}
			// The processor retains its labels, so it gets an owned copy.
			r.matchBuf = append(r.matchBuf, refMatch{post: int32(i), sub: sub, labels: append([]core.Label(nil), labels...)})
		}
	}
	r.matches += int64(len(r.matchBuf))
	t = r.mark(lMatch, k, t)

	// stream: one Process call per (post, matched subscription), in post
	// order, which is all a subscription's sequence depends on.
	for _, m := range r.matchBuf {
		p := posts[m.post]
		sub := m.sub
		cp := core.Post{ID: p.ID, Value: p.Time, Labels: m.labels}
		sub.matched++
		if sub.verified {
			sub.posts = append(sub.posts, cp)
		}
		es, err := sub.proc.Process(cp)
		if err != nil {
			return fmt.Errorf("subscription %d post %d: %w", sub.id, p.ID, err)
		}
		for _, e := range es {
			sub.emitted++
			r.emitted++
			if d := e.EmitAt - e.Post.Value; d > r.maxDelay {
				r.maxDelay = d
			}
			if !sub.verified {
				continue
			}
			sub.emissions = append(sub.emissions, r.emissionOf(sub, e))
			if sub.id == 1 {
				sub.trigger = append(sub.trigger, int32(p.ID-1))
			}
		}
	}
	r.mark(lProcess, k, t)
	if r.trace {
		r.spans = append(r.spans, span{Name: "batch", Batch: k, StartNs: batchStart.Sub(r.t0).Nanoseconds(), EndNs: time.Since(r.t0).Nanoseconds()})
	}
	return nil
}

func (r *reference) emissionOf(sub *refSub, e mqdp.Emission) emission {
	names := make([]string, len(e.Post.Labels))
	for i, a := range e.Post.Labels {
		names[i] = sub.matcher.Topic(a).Name
	}
	return emission{
		Seq:    sub.emitted,
		PostID: e.Post.ID,
		Time:   e.Post.Value,
		Text:   r.in.posts[e.Post.ID-1].Text,
		Topics: names,
		EmitAt: e.EmitAt,
	}
}

func (r *reference) decode(body []byte) ([]wire.StreamPost, error) {
	if !r.in.spec.binary {
		r.jsonBuf = r.jsonBuf[:0]
		if err := json.Unmarshal(body, &r.jsonBuf); err != nil {
			return nil, err
		}
		r.decoded = r.decoded[:0]
		for _, p := range r.jsonBuf {
			r.decoded = append(r.decoded, wire.StreamPost(p))
		}
		return r.decoded, nil
	}
	posts, err := decodeBinary(r.decoded[:0], body)
	r.decoded = posts
	return posts, err
}

func decodeBinary(dst []wire.StreamPost, body []byte) ([]wire.StreamPost, error) {
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	kind, frame, _, err := dec.DecodeFrame(body)
	if err != nil {
		return nil, err
	}
	if kind != wire.KindStreamPosts {
		return nil, fmt.Errorf("frame kind %#x", kind)
	}
	return wire.AppendStreamPosts(dst, frame)
}

// coverResult is what verifying the paper's promises on the reference's own
// output yields.
type coverResult struct {
	posts, emitted, scanCover int64
	verifyBusy, scanBusy      time.Duration
}

// verifyCovers checks, on every verified profile, that the emitted set
// λ-covers every matched post on every label. The stream is cut mid-flight,
// so each processor is flushed first: the decisions still pending at the cut
// complete the cover (they are not expected from the server, which is never
// flushed). With scan set it also solves each profile offline with Scan for
// stream.cover_vs_scan. It releases the matched posts it consumed.
func (r *reference) verifyCovers(scan bool) (coverResult, error) {
	var res coverResult
	for _, sub := range r.subs {
		if !sub.verified || len(sub.posts) == 0 {
			continue
		}
		selected := make(map[int64]bool, len(sub.emissions))
		for _, e := range sub.emissions {
			selected[e.PostID] = true
		}
		for _, e := range sub.proc.Flush() {
			selected[e.Post.ID] = true
		}
		inst, err := mqdp.NewInstance(sub.posts, sub.matcher.NumTopics())
		if err != nil {
			return res, fmt.Errorf("subscription %d: %w", sub.id, err)
		}
		var idx []int
		for i, p := range inst.Posts() {
			if selected[p.ID] {
				idx = append(idx, i)
			}
		}
		t := time.Now()
		if err := mqdp.Verify(inst, sub.lambda, idx); err != nil {
			return res, fmt.Errorf("subscription %d: emitted set is not a λ-cover: %w", sub.id, err)
		}
		res.verifyBusy += time.Since(t)
		res.posts += int64(inst.Len())
		res.emitted += int64(len(idx))
		if scan {
			t = time.Now()
			cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: sub.lambda, Algorithm: mqdp.Scan, SkipVerify: true, Parallelism: 1})
			if err != nil {
				return res, fmt.Errorf("subscription %d: offline Scan: %w", sub.id, err)
			}
			res.scanBusy += time.Since(t)
			res.scanCover += int64(len(cover.Selected))
		}
		sub.posts = nil
	}
	return res, nil
}

// wireResult measures both codecs on the same sample of batches, whatever
// the workload's own wire is.
type wireResult struct {
	jsonUs, binaryUs, allocs, bytes float64 // per post; allocs and bytes are of the workload's own wire
}

func measureWire(in *inputs) (wireResult, error) {
	n := min(len(in.bodies), 256)
	var res wireResult
	var jsonBodies, binBodies [][]byte
	posts := 0
	for k := 0; k < n; k++ {
		j, err := encodeBatch(in.batchPosts(k), false)
		if err != nil {
			return res, err
		}
		b, err := encodeBatch(in.batchPosts(k), true)
		if err != nil {
			return res, err
		}
		jsonBodies, binBodies = append(jsonBodies, j), append(binBodies, b)
		posts += in.spec.batch
		res.bytes += float64(len(in.bodies[k]))
	}
	var jp []jsonPost
	var sp []wire.StreamPost
	decodeJSON := func() error {
		for _, b := range jsonBodies {
			jp = jp[:0]
			if err := json.Unmarshal(b, &jp); err != nil {
				return err
			}
		}
		return nil
	}
	decodeBin := func() error {
		for _, b := range binBodies {
			var err error
			if sp, err = decodeBinary(sp[:0], b); err != nil {
				return err
			}
		}
		return nil
	}
	own := decodeJSON
	if in.spec.binary {
		own = decodeBin
	}
	// One untimed pass fills the pools and scratch slices.
	if err := decodeJSON(); err != nil {
		return res, err
	}
	if err := decodeBin(); err != nil {
		return res, err
	}
	t := time.Now()
	if err := decodeJSON(); err != nil {
		return res, err
	}
	res.jsonUs = us(time.Since(t)) / float64(posts)
	t = time.Now()
	if err := decodeBin(); err != nil {
		return res, err
	}
	res.binaryUs = us(time.Since(t)) / float64(posts)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := own(); err != nil {
		return res, err
	}
	runtime.ReadMemStats(&m1)
	res.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(posts)
	res.bytes /= float64(posts)
	return res, nil
}

// walResult is the reference's own pass over a write-ahead log: the records
// the server journals per ingest request (batch, then ack, then one commit),
// then a full replay of that log.
type walResult struct {
	appendBusy, syncBusy, replayBusy time.Duration
	batches, posts, bytes            int64
	spans                            []span
}

// The server's WAL record kinds for an ingest batch and its acknowledgement.
const (
	recBatch    = 1
	recBatchAck = 6
)

func measureWAL(in *inputs, dir string, t0 time.Time) (walResult, error) {
	var res walResult
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncBatch})
	if err != nil {
		return res, err
	}
	defer log.Close()
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	var payload, ack []byte
	for k := range in.bodies {
		posts := in.batchPosts(k)
		start := time.Now()
		// recBatch: uvarint key length (no idempotency key), then the frame.
		payload = append(payload[:0], 0)
		payload = append(payload, enc.EncodeStreamPosts(posts, wire.DefaultCompressThreshold)...)
		if _, err := log.Append(recBatch, payload); err != nil {
			return res, err
		}
		// recBatchAck: accepted count, HTTP status, empty error string.
		ack = binary.AppendUvarint(ack[:0], uint64(len(posts)))
		ack = binary.AppendUvarint(ack, 200)
		if _, err := log.Append(recBatchAck, ack); err != nil {
			return res, err
		}
		mid := time.Now()
		if err := log.Commit(); err != nil {
			return res, err
		}
		end := time.Now()
		res.appendBusy += mid.Sub(start)
		res.syncBusy += end.Sub(mid)
		res.spans = append(res.spans,
			span{Name: layerNames[lWalAppend], Batch: k, Parent: "batch", StartNs: start.Sub(t0).Nanoseconds(), EndNs: mid.Sub(t0).Nanoseconds()},
			span{Name: layerNames[lWalSync], Batch: k, Parent: "batch", StartNs: mid.Sub(t0).Nanoseconds(), EndNs: end.Sub(t0).Nanoseconds()})
		res.batches++
		res.posts += int64(len(posts))
	}
	if err := log.Sync(); err != nil {
		return res, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return res, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return res, err
		}
		res.bytes += fi.Size()
	}
	var sp []wire.StreamPost
	replayed := int64(0)
	start := time.Now()
	err = log.Replay(1, func(rec wal.Record) error {
		if rec.Kind != recBatch {
			return nil
		}
		_, n := binary.Uvarint(rec.Data)
		var err error
		sp, err = decodeBinary(sp[:0], rec.Data[n:])
		replayed += int64(len(sp))
		return err
	})
	res.replayBusy = time.Since(start)
	if err == nil && replayed != res.posts {
		err = fmt.Errorf("wal replay returned %d posts, %d were appended", replayed, res.posts)
	}
	return res, err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
