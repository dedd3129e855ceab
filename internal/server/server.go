// Package server implements the publish/subscribe front of the paper's
// architecture (Figure 1, §1's subscription scenario): users register
// profiles — a set of topic queries plus λ, τ and an algorithm choice — and
// a shared post stream is matched, near-duplicate filtered and diversified
// *per subscription*, each with its own streaming processor. §7.4 motivates
// exactly this shape: the per-post work must stay small because the
// algorithm "has to be executed for millions of users".
//
// Concurrency model: the Server's RWMutex guards only the subscription
// registry. All per-subscription state (processor, emission buffer, held
// posts) lives behind that subscription's own mutex, so readers poll other
// subscriptions unblocked while ingest feeds a post's routed candidates.
// Ingest is serialized by a separate mutex: the order check, dedup,
// routing and the fan-out, which feeds the candidates one after another in
// subscription-ID order on the ingest goroutine. Every subscription thus
// sees posts in timestamp order, and its emission sequence depends only
// on the stream. Lock order: walBatchMu → ingestMu → sub.mu → the route
// package's leaf locks.
//
// Instrumentation is per ingest batch, not per post or per candidate:
// applyBatch opens one ingest.batch span under a traced request and reads
// the clock twice, and the batch's trace ID rides the fan-out into every
// emission it produces.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/digest"
	"mqdp/internal/faultinject"
	"mqdp/internal/match"
	"mqdp/internal/obs"
	"mqdp/internal/route"
	"mqdp/internal/simhash"
	"mqdp/internal/stream"
	"mqdp/internal/textutil"
)

// Post is one incoming stream item.
type Post struct {
	ID   int64   `json:"id"`
	Time float64 `json:"time"`
	Text string  `json:"text"`
}

// Emission is one diversified output item for a subscription. Topics is
// read-only: one-topic emissions of a subscription share one slice.
type Emission struct {
	Seq    int64    `json:"seq"`
	PostID int64    `json:"post_id"`
	Time   float64  `json:"time"`
	Text   string   `json:"text"`
	Topics []string `json:"topics"`
	EmitAt float64  `json:"emit_at"`
}

// SubscriptionConfig describes a user profile.
type SubscriptionConfig struct {
	// Topics are the user's queries.
	Topics []match.Topic `json:"topics"`
	// Lambda is the diversity threshold on the time dimension (seconds).
	Lambda float64 `json:"lambda"`
	// Tau is the maximum reporting delay (seconds); ignored by Instant.
	Tau float64 `json:"tau"`
	// Algorithm is one of "streamscan", "streamscan+", "streamgreedy",
	// "streamgreedy+", "instant". Default "streamscan+".
	Algorithm string `json:"algorithm"`
	// TopK sizes the continuously maintained diversified top-k view over
	// this profile's λ-cover emissions (0 means the default of 10).
	TopK int `json:"top_k,omitempty"`
	// TopKWindow is the sliding window, in value (event-time) units, the
	// top-k view retains: cover posts older than the stream watermark
	// minus the window expire from the view. 0 disables expiry, leaving
	// rank displacement as the only way out.
	TopKWindow float64 `json:"top_k_window,omitempty"`
}

// defaultTopK is the view size used when SubscriptionConfig.TopK is 0.
const defaultTopK = 10

// maxEmissionBuffer caps each subscription's retained emission history.
// A variable so tests can exercise the trim path cheaply.
var maxEmissionBuffer = 65536

// postRecord is one admitted post with at least one routed candidate,
// shared read-only by every subscription it matched. seq is the
// server-assigned ingest sequence the processors see as the post's ID, so a
// client ID reused within a window cannot alias two posts.
type postRecord struct {
	seq  int64
	post Post
}

// heldPost is a matched post awaiting a decision: its seq and time, and its
// record until a decision takes it.
type heldPost struct {
	seq  int64
	time float64
	rec  *postRecord
}

// heldPosts is a subscription's matched posts in seq (= time) order, until
// its own now − λ − τ − 1 horizon. StreamScan and StreamGreedy decide
// lazily, on the subscription's next match or on Flush, so a dormant
// subscription may emit a post long after the stream passed any global
// horizon: a record lives as long as some subscription may decide it.
type heldPosts struct {
	q    []heldPost
	head int
}

// take returns seq's record and releases it; nil when seq is not held or
// was already decided.
func (h *heldPosts) take(seq int64) *postRecord {
	live := h.q[h.head:]
	i := len(live) - 1
	if i < 0 || live[i].seq != seq {
		var ok bool
		if i, ok = slices.BinarySearchFunc(live, seq, func(e heldPost, seq int64) int { return cmp.Compare(e.seq, seq) }); !ok {
			return nil
		}
	}
	rec := live[i].rec
	live[i].rec = nil
	return rec
}

// trim drops the posts older than horizon, O(1) amortised and allocation
// free: the queue is compacted in place once the dropped prefix dominates.
func (h *heldPosts) trim(horizon float64) {
	for h.head < len(h.q) && h.q[h.head].time < horizon {
		h.q[h.head] = heldPost{}
		h.head++
	}
	if h.head == len(h.q) || h.head > 64 && h.head*2 >= len(h.q) {
		n := copy(h.q, h.q[h.head:])
		clear(h.q[n:])
		h.q, h.head = h.q[:n], 0
	}
}

// subscription is the per-user pipeline state. Everything below mu is
// guarded by it; the atomic counters are updated under mu but may be read
// lock-free by stats endpoints.
type subscription struct {
	id  int64
	cfg SubscriptionConfig

	// routeSyms are the matcher's distinct keyword symbols in the server's
	// shared symbol table — the posting keys this subscription occupies in
	// the routing index, each holding one reference until unsubscribe.
	// Immutable after Subscribe.
	routeSyms []uint32

	mu   sync.Mutex
	proc mqdp.Processor
	// buffer of emissions with monotonically increasing, contiguous Seq.
	emissions []Emission
	// emTrace is the aligned trace-ID sidecar for emissions: emTrace[i] is
	// the trace of the ingest request that produced emissions[i]. Kept out
	// of Emission itself so poll/wire payloads stay byte-identical with
	// tracing on or off (only SSE carries the trace, as an extra comment
	// line). Nil until the first traced delivery; zero-backfilled then.
	emTrace []obs.TraceID
	held    heldPosts
	// topicNames[a] names label a (see names).
	topicNames []string
	// topk is the continuously maintained diversified top-k view over the
	// λ-cover: one ranked insert per delivered emission, one expiry sweep
	// per window slide.
	topk *stream.TopK[Emission]

	// Push-delivery hub state: wait is the broadcast channel push waiters
	// (SSE streams, blocked long-polls) park on — closed, then cleared,
	// whenever emissions, the top-k view, or the terminal state change —
	// and done latches once no further emission can ever be appended
	// (flush, unsubscribe, quarantine), with doneReason naming which.
	wait       chan struct{}
	done       bool
	doneReason string

	// Counters are updated under mu but read lock-free by stats endpoints;
	// delays is the cumulative decision-delay histogram observed at delivery
	// time, so stats cost O(buckets) instead of rescanning the buffer.
	nextSeq    obs.Counter
	matched    obs.Counter
	textMisses obs.Counter // decisions whose text was gc'd before they landed
	delays     *obs.Histogram

	// quarantined latches true when the matcher/processor panics: the
	// subscription stops receiving posts (its pipeline state is suspect)
	// but stays registered so its emission buffer remains pollable and
	// its stats surface the failure. The flag is read lock-free on the
	// fan-out fast path; quarantineMsg is guarded by mu.
	quarantined   atomic.Bool
	quarantineMsg string
}

// quarantine isolates the subscription after a pipeline panic. Caller
// holds sub.mu.
func (sub *subscription) quarantine(msg string, s *Server) {
	if sub.quarantined.Swap(true) {
		return
	}
	sub.quarantineMsg = msg
	s.quarantines.Inc()
	if sub.doneReason != EndReasonUnsubscribed { // the gauge counts registered subscriptions
		s.obs.onQuarantine(1)
	}
	// Journal the latch (no-op without durability or during replay): after
	// a restart the profile answers quarantined exactly like before it.
	s.durAppendQuarantine(sub.id, msg)
	// A quarantined pipeline never processes another post: withdraw its
	// routing postings so it stops surfacing as an ingest candidate (the
	// lock-free quarantined check in feed stays as the backstop for
	// fan-outs whose candidates were copied out before the withdrawal).
	// route.Index's mutex is a leaf that no fan-out holds, so taking it
	// under sub.mu, inside the fan-out, cannot deadlock.
	s.routes.Remove(sub.id, sub.routeSyms)
	if l := s.cfg.Logger; l != nil {
		l.Warn("subscription quarantined", slog.Int64("subscription", sub.id), slog.String("reason", msg))
	}
	// A quarantined pipeline will never emit again: terminate the hub so
	// live streams get an explicit terminal event instead of going silent
	// while their pollers wait forever.
	sub.terminateLocked(EndReasonQuarantined)
}

// Server is the multi-subscription diversification service. It is safe for
// concurrent use: ingest is serialized to preserve stream order, and each
// post is fed to its routed candidate subscriptions in turn.
type Server struct {
	// mu guards only the registry (subs, order, nextID).
	mu     sync.RWMutex
	nextID int64
	subs   map[int64]*subscription
	// order is subs sorted by id, kept in place under mu (a sorted insert
	// on Subscribe and restore, a binary-search delete on Unsubscribe);
	// Flush, Metrics and the snapshot writer walk a clone taken under RLock.
	order []*subscription

	// ingestMu serializes Ingest and Flush: the order check, dedup and the
	// fan-out itself, so every subscription sees posts in timestamp order.
	ingestMu sync.Mutex
	dedup    *simhash.Deduper
	lastTime float64
	started  bool
	// wordBuf is the reused tokenization buffer: each post is tokenized
	// exactly once under ingestMu, for the deduper and for routing, instead
	// of the deduper and each subscription re-tokenizing the text.
	// Oversized scratch is dropped after the post (see keepIngestScratch)
	// so one pathological post doesn't pin its buffers forever.
	wordBuf []string
	// symBuf, postBuf and candBuf are the routing scratch, reused under
	// ingestMu and dropped past keepIngestScratch like wordBuf: the post's
	// tokens resolved to deduplicated symbols, the postings merged for
	// them, and those postings folded into one candidate per subscription.
	// The fan-out clears the used prefix of the last two, so no
	// unsubscribed profile stays reachable from the scratch.
	symBuf  []uint32
	postBuf []route.Entry[posting]
	candBuf []posting

	// Subscription routing: symtab interns every registered profile's
	// keywords (and resolves post tokens) to uint32 symbols shared by all
	// matchers, forgetting a keyword with its last profile;
	// routes is the inverted index keyword symbol → ID-ordered postings,
	// each carrying the labels its keyword answers to. subCount mirrors the
	// registry size for the routing_skipped accounting, Stats and Health
	// without taking mu.
	symtab         *route.Table
	routes         *route.Index[posting]
	subCount       atomic.Int64
	routingSkipped obs.Counter

	closed   atomic.Bool // latched by the first Flush
	ingested obs.Counter
	dropped  obs.Counter

	// cfg is the configuration New was given, read-only from then on. What
	// New derives from it sits below: the registry-wired service
	// instruments (nil = no registry) and the durability runtime (nil =
	// in-memory only).
	cfg Config
	obs *serverObs
	dur *durState

	// Fault-tolerance layer: idem replays ingest outcomes to retrying
	// clients, and quarantines counts the panic-isolation decisions.
	idem        idemCache
	quarantines obs.Counter

	// Push delivery: streams counts the active push waiters (SSE streams
	// plus blocked long-polls) and pushed counts emissions written to push
	// streams.
	streams atomic.Int64
	pushed  obs.Counter

	// gaps counts *GapError reports across every delivery surface: plain
	// polls, long-polls and SSE gap events.
	gaps obs.Counter

	walRecords   obs.Counter
	walSnapshots obs.Counter
}

// Config is everything a Server can be told. New reads it once; a running
// server is never reconfigured — to change a value, restart (with
// Durability.Dir set the restart resumes from the recovered state). The
// zero value is a working in-memory server: no deduplication, no
// instrumentation.
type Config struct {
	// DupDistance and DupWindow drop near-duplicates within that SimHash
	// hamming distance over a window of that many recent posts before
	// matching. DupWindow ≤ 0 disables deduplication.
	DupDistance, DupWindow int
	// Faults is the deterministic chaos hook consulted at the server's
	// in-process fault points and the WAL's IO failpoints; nil = none.
	Faults *faultinject.Injector
	// Obs receives the service-level instruments; nil disables them
	// (per-subscription counters and the JSON /metrics endpoint work
	// regardless). Recovery replay inside New is instrumented too.
	Obs *obs.Registry
	// SLOIngest classifies POST /ingest requests and SLOPoll plain
	// (non-long-poll) emission polls against a latency objective; nil =
	// not tracked.
	SLOIngest, SLOPoll *obs.SLO
	// Logger receives request and lifecycle records (trace-correlated via
	// trace_id attrs); nil disables logging.
	Logger *slog.Logger
	// Durability wires a data directory; an empty Dir keeps the server
	// in-memory only.
	Durability DurabilityConfig
}

// New builds a Server from cfg. With cfg.Durability.Dir set it opens (or
// creates) the directory, restores the newest valid snapshot and replays
// the WAL suffix through the regular ingest/registry paths before
// returning, so the server it returns is already recovered and journals
// every subsequent mutation. Close it when done.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:    cfg,
		subs:   make(map[int64]*subscription),
		symtab: route.NewTable(),
		routes: route.NewIndex[posting](),
	}
	if cfg.DupWindow > 0 {
		s.dedup = simhash.NewDeduper(cfg.DupDistance, cfg.DupWindow)
	}
	if cfg.Obs != nil {
		s.obs = newServerObs(s, cfg.Obs)
	}
	if cfg.Durability.Dir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Errors returned by the server.
var (
	ErrNoSuchSubscription = errors.New("server: no such subscription")
	ErrOutOfOrder         = errors.New("server: post arrived out of time order")
	ErrClosed             = errors.New("server: stream flushed, no longer accepting posts")
	// ErrGap reports a stale poll cursor: emissions between the cursor and
	// the first retained Seq were dropped by GC and can never be
	// delivered. It is always wrapped in a *GapError, returned alongside
	// the retained tail — never a silent splice.
	ErrGap = errors.New("server: emissions lost to gc before cursor")
	// ErrStreamEnded reports that a push stream or blocking poll
	// terminated because its subscription can never emit again. Always
	// wrapped in a *StreamEndError naming the reason.
	ErrStreamEnded = errors.New("server: subscription stream ended")
)

// Terminal stream reasons carried by StreamEndError and the SSE end event.
const (
	EndReasonFlushed      = "flushed"
	EndReasonUnsubscribed = "unsubscribed"
	EndReasonQuarantined  = "quarantined"
)

// GapError is the gap geometry behind ErrGap: seqs in [GapFrom, FirstSeq)
// were emitted but dropped before the cursor read them. FirstSeq is where
// a resuming client should continue (the first retained Seq, or — when the
// whole buffer was trimmed — the next Seq to be assigned).
type GapError struct {
	GapFrom  int64 `json:"gap_from"`
	FirstSeq int64 `json:"first_seq"`
}

func (e *GapError) Error() string {
	return fmt.Sprintf("server: emissions %d..%d lost to gc; resume from seq %d", e.GapFrom, e.FirstSeq-1, e.FirstSeq)
}

// Unwrap makes errors.Is(err, ErrGap) match.
func (e *GapError) Unwrap() error { return ErrGap }

// StreamEndError reports why a push stream or blocking poll terminated:
// EndReasonFlushed, EndReasonUnsubscribed or EndReasonQuarantined.
type StreamEndError struct {
	Reason string
}

func (e *StreamEndError) Error() string { return "server: subscription stream ended: " + e.Reason }

// Unwrap makes errors.Is(err, ErrStreamEnded) match.
func (e *StreamEndError) Unwrap() error { return ErrStreamEnded }

// Subscribe registers a profile and returns its id. With durability
// enabled, the registration is journaled so it survives a crash; while
// the durability layer is degraded, registry mutations are refused with
// ErrReadOnly (they could not be made durable).
func (s *Server) Subscribe(cfg SubscriptionConfig) (int64, error) {
	d := s.dur
	if d != nil {
		if d.degraded.Load() {
			return 0, ErrReadOnly
		}
		d.walBatchMu.Lock()
		defer d.walBatchMu.Unlock()
	}
	id, err := s.subscribe(0, cfg)
	if err != nil {
		return 0, err
	}
	if d != nil {
		if err := s.durAppendSubscribe(d, id, cfg); err != nil {
			// Not journaled, so a restart would not know it: roll the
			// registration back rather than report an id that can vanish.
			_ = s.unsubscribe(id)
			return 0, err
		}
	}
	return id, nil
}

// subscribe builds and registers one subscription pipeline. id 0 assigns
// the next registry id; a nonzero id re-registers a specific id (WAL
// replay) and is a no-op when that id is already present.
func (s *Server) subscribe(id int64, cfg SubscriptionConfig) (int64, error) {
	matcher, err := match.NewMatcher(cfg.Topics)
	if err != nil {
		return 0, err
	}
	algo, err := parseStreamAlgo(cfg.Algorithm)
	if err != nil {
		return 0, err
	}
	proc, err := mqdp.NewStream(algo, matcher.NumTopics(), cfg.Lambda, cfg.Tau)
	if err != nil {
		return 0, err
	}
	if cfg.TopK < 0 || cfg.TopKWindow < 0 {
		return 0, fmt.Errorf("server: negative top_k %d or top_k_window %v", cfg.TopK, cfg.TopKWindow)
	}
	k := cfg.TopK
	if k == 0 {
		k = defaultTopK
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		s.nextID++
		id = s.nextID
	} else {
		if _, ok := s.subs[id]; ok {
			return id, nil
		}
		if id > s.nextID {
			s.nextID = id
		}
	}
	// Compile the matcher against the shared symbol table, taking one
	// reference per keyword (unsubscribe releases them); the returned
	// symbols key this subscription's posting lists in the routing index.
	sub := &subscription{
		id:         id,
		cfg:        cfg,
		routeSyms:  matcher.CompileSymbols(s.symtab),
		proc:       proc,
		topicNames: topicNames(cfg.Topics),
		delays:     obs.NewHistogram(obs.DelayBuckets),
		topk:       stream.NewTopK[Emission](k, cfg.TopKWindow),
	}
	s.subs[sub.id] = sub
	s.countSubsLocked()
	// Ids normally only grow, so this is an append; the sorted insert also
	// covers replayed ids arriving after a snapshot restore.
	s.order = insertOrdered(s.order, sub)
	s.addRoutes(sub, matcher)
	return sub.id, nil
}

// countSubsLocked republishes the registry size to subCount and the
// gauge. Caller holds s.mu.
func (s *Server) countSubsLocked() {
	s.subCount.Store(int64(len(s.subs)))
	if o := s.obs; o != nil {
		o.subs.Set(float64(len(s.subs)))
	}
}

// posting is the routing index's payload: a subscription under one of its
// keyword symbols, with the labels that keyword answers to in the profile.
// Folded per post (foldPostings) it is a fan-out candidate: the
// subscription with every label the post matches.
type posting struct {
	sub    *subscription
	labels []core.Label
}

// addRoutes posts sub under each of its keyword symbols, with the labels m
// gives each (route.Index has its own leaf mutex; a fan-out already routed
// keeps its candidates).
func (s *Server) addRoutes(sub *subscription, m *match.Matcher) {
	s.routes.AddFunc(sub.id, sub.routeSyms, func(sym uint32) posting {
		return posting{sub: sub, labels: m.SymbolLabels(sym)}
	})
}

// Unsubscribe removes a profile and terminates its live push streams:
// blocked waiters wake immediately with an explicit stream end instead of
// hanging until their own timeouts. With durability enabled the removal
// is journaled before it is applied, so a failed append leaves the
// subscription in place; while degraded it is refused with ErrReadOnly.
func (s *Server) Unsubscribe(id int64) error {
	d := s.dur
	if d != nil {
		if d.degraded.Load() {
			return ErrReadOnly
		}
		d.walBatchMu.Lock()
		defer d.walBatchMu.Unlock()
		// walBatchMu serializes registry mutations, so the subscription
		// found here is still present when it is removed below.
		if _, ok := s.lookup(id); !ok {
			return ErrNoSuchSubscription
		}
		if err := s.durAppendUnsubscribe(d, id); err != nil {
			return err
		}
	}
	return s.unsubscribe(id)
}

func (s *Server) unsubscribe(id int64) error {
	s.mu.Lock()
	sub, ok := s.subs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchSubscription
	}
	delete(s.subs, id)
	s.countSubsLocked()
	if i, ok := slices.BinarySearchFunc(s.order, id, bySubID); ok {
		s.order = slices.Delete(s.order, i, i+1)
	}
	s.mu.Unlock()
	// Withdraw the postings (idempotent: quarantine may have removed them
	// already) so routed ingest stops producing this candidate, then drop
	// the keyword references subscribe took (quarantine keeps them).
	s.routes.Remove(id, sub.routeSyms)
	s.symtab.Release(sub.routeSyms)
	sub.mu.Lock()
	if sub.quarantined.Load() {
		s.obs.onQuarantine(-1)
	}
	sub.terminateLocked(EndReasonUnsubscribed)
	sub.mu.Unlock()
	return nil
}

// ingestOne is the WAL-free admission + fan-out core shared by the live
// path (which journals first) and WAL replay (whose records already exist).
// It returns the post's routed candidate count and whether the deduper
// dropped it; trace is the ingest request's, carried into the emissions.
func (s *Server) ingestOne(ctx context.Context, p Post, trace obs.TraceID) (int, bool, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	if s.closed.Load() {
		return 0, false, ErrClosed
	}
	if s.started && p.Time < s.lastTime {
		return 0, false, fmt.Errorf("%w: %v after %v", ErrOutOfOrder, p.Time, s.lastTime)
	}
	s.started = true
	s.lastTime = p.Time
	seq := s.ingested.Add(1)
	// Tokenize once per post: the deduper fingerprints these words, and
	// routing resolves them to symbols.
	words := textutil.AppendWords(s.wordBuf[:0], p.Text)
	s.wordBuf = bounded(words)
	if s.dedup != nil && !s.dedup.OfferWords(words) {
		s.dropped.Inc()
		return 0, true, nil
	}
	// Inverted routing is the match: resolve the post's tokens to symbols
	// (unknown tokens are nobody's keyword and drop out here), k-way-merge
	// their postings in subscription-ID order, and fold each subscription's
	// postings into its labels. A subscription matches exactly when one of
	// its keywords is present, so the candidates are the matches and their
	// labels what its matcher would return (TestRoutingEquivalence holds
	// the broadcast oracle).
	s.symBuf = route.DedupSyms(s.symtab.AppendSyms(s.symBuf[:0], words))
	s.postBuf = s.routes.Postings(s.postBuf[:0], s.symBuf)
	cands := foldPostings(s.candBuf[:0], s.postBuf)
	s.symBuf = bounded(s.symBuf)
	if skipped := s.subCount.Load() - int64(len(cands)); skipped > 0 {
		s.routingSkipped.Add(skipped)
	}
	if o := s.obs; o != nil {
		o.routingCands.Observe(float64(len(cands)))
	}
	if len(cands) == 0 {
		return 0, false, nil
	}
	err := s.fanout(cands, &postRecord{seq: seq, post: p}, trace)
	// A stale subscription pointer in the scratch would keep an
	// unsubscribed profile's pipeline reachable.
	clear(s.postBuf)
	clear(cands)
	s.postBuf, s.candBuf = bounded(s.postBuf), bounded(cands)
	return len(cands), false, err
}

// foldPostings appends one candidate per subscription of ps, whose
// postings are adjacent, carrying the sorted union of their labels. The
// labels are carved from one fresh arena per post, never reused: the
// processors retain them.
func foldPostings(dst []posting, ps []route.Entry[posting]) []posting {
	n := 0
	for _, e := range ps {
		n += len(e.V.labels)
	}
	arena := make([]core.Label, 0, n)
	for i, j := 0, 0; i < len(ps); i = j {
		lo := len(arena)
		for ; j < len(ps) && ps[j].ID == ps[i].ID; j++ {
			arena = append(arena, ps[j].V.labels...)
		}
		labels := arena[lo:]
		if j-i > 1 {
			slices.Sort(labels)
			labels = slices.Compact(labels)
			arena = arena[:lo+len(labels)]
		}
		dst = append(dst, posting{sub: ps[i].V.sub, labels: labels[:len(labels):len(labels)]})
	}
	return dst
}

// fanout feeds rec to every candidate in order and returns the first
// failure; a failing feed does not stop the ones after it.
func (s *Server) fanout(cands []posting, rec *postRecord, trace obs.TraceID) error {
	var first error
	for _, c := range cands {
		if err := c.sub.feed(rec, c.labels, s, trace); first == nil {
			first = err
		}
	}
	return first
}

// keepIngestScratch bounds the per-post scratch (words, symbols, postings,
// candidates) retained between ingests, in entries — the slice-pool
// analogue of the wire codec's 8 MiB byte cap.
const keepIngestScratch = 1 << 12

// bounded returns buf for reuse by the next post, or nil once it outgrew
// keepIngestScratch: one pathological post must not pin it forever.
func bounded[E any](buf []E) []E {
	if cap(buf) > keepIngestScratch {
		return nil
	}
	return buf
}

// feed processes one matched post for a single subscription; labels are
// the topics it matched, as routing folded them, owned by the processor
// from here on. A panic anywhere in the per-subscription pipeline
// (processor, delivery — or a scripted chaos panic from cfg.Faults)
// quarantines this subscription and returns nil: one poisoned profile
// must not fail the ingest or kill the process.
func (sub *subscription) feed(rec *postRecord, labels []core.Label, s *Server, trace obs.TraceID) (err error) {
	if sub.quarantined.Load() {
		return nil
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sub.quarantine(fmt.Sprintf("panic on post %d: %v", rec.post.ID, r), s)
			err = nil
		}
	}()
	sub.matched.Inc()
	s.obs.onMatch()
	if inj := s.cfg.Faults; inj != nil {
		if err := inj.Fire(fmt.Sprintf("sub%d.process", sub.id)); err != nil {
			return fmt.Errorf("server: subscription %d: %w", sub.id, err)
		}
	}
	now := rec.post.Time
	sub.held.q = append(sub.held.q, heldPost{seq: rec.seq, time: now, rec: rec})
	es, err := sub.proc.Process(mqdp.Post{ID: rec.seq, Value: now, Labels: labels})
	if err != nil {
		return fmt.Errorf("server: subscription %d: %w", sub.id, err)
	}
	sub.deliver(es, s.obs, trace)
	sub.gc(now)
	// Slide the top-k window to this post's time; waiters only wake when
	// the visible view actually changed (deliver wakes them for appends).
	if sub.topk.Advance(now) {
		sub.notifyLocked()
	}
	return nil
}

// deliver converts processor emissions into client-facing records. A
// decision takes its held post; a decision whose post was already dropped
// (or decided) is counted in textMisses and skipped rather than emitted
// blank. Caller holds sub.mu.
func (sub *subscription) deliver(es []mqdp.Emission, o *serverObs, trace obs.TraceID) {
	appended := false
	for _, e := range es {
		src := sub.held.take(e.Post.ID)
		if src == nil {
			sub.textMisses.Inc()
			o.onMiss()
			continue
		}
		names := sub.names(e.Post.Labels)
		seq := sub.nextSeq.Add(1)
		delay := e.EmitAt - e.Post.Value
		sub.delays.Observe(delay)
		o.onEmit(delay, trace)
		em := Emission{
			Seq:    seq,
			PostID: src.post.ID,
			Time:   e.Post.Value,
			Text:   src.post.Text,
			Topics: names,
			EmitAt: e.EmitAt,
		}
		sub.emissions = append(sub.emissions, em)
		// Record the originating trace in the sidecar; the lazy allocation
		// zero-backfills emissions delivered before tracing was enabled.
		if !trace.IsZero() || sub.emTrace != nil {
			if sub.emTrace == nil {
				sub.emTrace = make([]obs.TraceID, len(sub.emissions)-1, cap(sub.emissions))
			}
			sub.emTrace = append(sub.emTrace, trace)
		}
		// Every cover emission is also a top-k candidate: coverage is the
		// number of queries the post served at decision time.
		sub.topk.Insert(stream.TopKItem[Emission]{
			Value:    em.Time,
			Coverage: len(names),
			Seq:      seq,
			Payload:  em,
		})
		appended = true
	}
	if appended {
		sub.notifyLocked()
	}
}

// names resolves labels to topic names: a one-label emission shares the
// read-only subslice of topicNames, only a multi-label one allocates.
func (sub *subscription) names(labels []core.Label) []string {
	if len(labels) == 1 {
		return sub.topicNames[labels[0] : labels[0]+1 : labels[0]+1]
	}
	names := make([]string, len(labels))
	for i, a := range labels {
		names[i] = sub.topicNames[a]
	}
	return names
}

// gc drops held posts whose decision windows have passed and caps the
// emission buffer. Caller holds sub.mu.
func (sub *subscription) gc(now float64) {
	sub.held.trim(now - sub.cfg.Lambda - sub.cfg.Tau - 1)
	sub.emissions = keepLast(sub.emissions, maxEmissionBuffer)
	sub.emTrace = keepLast(sub.emTrace, maxEmissionBuffer)
}

// keepLast drops all but the last n elements of s in amortised O(1): the
// dropped prefix is cleared so it pins nothing and s is resliced past it;
// the next append beyond capacity moves the survivors to a fresh array.
func keepLast[E any](s []E, n int) []E {
	if len(s) <= n {
		return s
	}
	drop := len(s) - n
	clear(s[:drop])
	return s[drop:]
}

// Flush ends the stream, forcing every pending decision out, and latches
// the server closed: further ingest fails with ErrClosed and further
// Flush calls are no-ops (processor streams end exactly once).
func (s *Server) Flush() {
	d := s.dur
	if d != nil {
		d.walBatchMu.Lock()
		defer d.walBatchMu.Unlock()
		// Journal the end-of-stream latch (first Flush only) so a restart
		// answers ErrClosed exactly like the live process did. A degraded
		// log can't record it, but the in-memory flush still proceeds —
		// shutdown must not hinge on a broken disk.
		if !s.closed.Load() && !d.degraded.Load() {
			_ = s.durAppendFlush(d)
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed.Swap(true) {
		return
	}
	s.mu.RLock()
	subs := slices.Clone(s.order)
	s.mu.RUnlock()
	for _, sub := range subs {
		sub.flush(s)
	}
}

// flush forces the subscription's pending decisions out and ends its
// stream. A processor that panics while flushing is quarantined like one
// that panics mid-stream; the other subscriptions flush on.
func (sub *subscription) flush(s *Server) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sub.quarantine(fmt.Sprintf("panic on flush: %v", r), s)
		}
	}()
	if !sub.quarantined.Load() {
		sub.deliver(sub.proc.Flush(), s.obs, obs.TraceID{})
	}
	// Every decision has landed; whatever is still held was rejected.
	sub.held = heldPosts{}
	// The stream is over: wake every push waiter with the terminal state
	// instead of leaving them parked until client timeouts.
	sub.terminateLocked(EndReasonFlushed)
}

// Closed reports whether Flush has ended the stream.
func (s *Server) Closed() bool { return s.closed.Load() }

// lookup fetches a subscription from the registry.
func (s *Server) lookup(id int64) (*subscription, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sub, ok := s.subs[id]
	return sub, ok
}

// Emissions returns a copy of a subscription's emissions with Seq > after,
// up to limit (≤ 0 means no limit). Seqs are contiguous within the
// retained buffer, so the starting index is computed in O(1) from the
// first retained Seq — no scan of the buffer.
//
// A cursor that predates the retained buffer is never spliced silently:
// when emissions in (after, firstRetained) were dropped by GC, Emissions
// returns the retained tail together with a *GapError (errors.Is
// ErrGap) reporting where delivery can resume.
func (s *Server) Emissions(id, after int64, limit int) ([]Emission, error) {
	if o := s.obs; o != nil {
		defer o.pollTime.ObserveSince(time.Now())
	}
	sub, ok := s.lookup(id)
	if !ok {
		return nil, ErrNoSuchSubscription
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	tail, _, gap := sub.pollLocked(after, limit)
	if gap != nil {
		return tail, gap
	}
	return tail, nil
}

// pollLocked copies the emissions with Seq > after (up to limit; ≤ 0 means
// no limit) and reports a *GapError when seqs in (after, firstAvail) were
// emitted but already dropped — including the fully trimmed empty-buffer
// case, where firstAvail is the next Seq to be assigned. The returned
// traces slice, when non-nil, aligns with the emissions: traces[i] is the
// originating ingest trace of the i-th returned emission (SSE attaches it
// to each event; poll JSON bodies never carry it). Caller holds sub.mu.
func (sub *subscription) pollLocked(after int64, limit int) ([]Emission, []obs.TraceID, *GapError) {
	firstAvail := sub.nextSeq.Value() + 1
	if len(sub.emissions) > 0 {
		firstAvail = sub.emissions[0].Seq
	}
	var gap *GapError
	if after+1 < firstAvail {
		gap = &GapError{GapFrom: after + 1, FirstSeq: firstAvail}
	}
	if len(sub.emissions) == 0 {
		return nil, nil, gap
	}
	start := 0
	if first := sub.emissions[0].Seq; after >= first {
		// Seq k lives at index k - first.
		start = int(after - first + 1)
	}
	if start >= len(sub.emissions) {
		return nil, nil, gap
	}
	tail := sub.emissions[start:]
	if limit > 0 && limit < len(tail) {
		tail = tail[:limit]
	}
	out := make([]Emission, len(tail))
	copy(out, tail)
	var traces []obs.TraceID
	if sub.emTrace != nil {
		traces = make([]obs.TraceID, len(tail))
		copy(traces, sub.emTrace[start:start+len(tail)])
	}
	return out, traces, gap
}

// Stats is a service snapshot.
type Stats struct {
	Ingested      int64 `json:"ingested"`
	DroppedDups   int64 `json:"dropped_duplicates"`
	Subscriptions int   `json:"subscriptions"`
}

// DelaySummary is the decision-delay distribution over every emission a
// subscription has delivered, read from its cumulative histogram. Count,
// Mean and Max are exact; P95 is a bucket-interpolated estimate (it never
// exceeds Max). Unlike the pre-histogram summary this covers the whole
// stream, not just the retained emission buffer, and costs O(buckets).
type DelaySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P95   float64 `json:"p95"`
}

// SubscriptionStats is a per-profile snapshot.
type SubscriptionStats struct {
	ID      int64 `json:"id"`
	Matched int64 `json:"matched"`
	Emitted int64 `json:"emitted"`
	// TextMisses counts decisions whose held post had been dropped (or
	// already decided) before the decision landed (the emission is dropped,
	// not emitted blank).
	TextMisses int64        `json:"text_misses"`
	Algorithm  string       `json:"algorithm"`
	Lambda     float64      `json:"lambda"`
	Tau        float64      `json:"tau"`
	Delay      DelaySummary `json:"delay"`
	// Quarantined reports that the pipeline panicked and the profile was
	// isolated: it receives no further posts but its emission buffer
	// stays pollable. QuarantineReason carries the recovered panic.
	Quarantined      bool   `json:"quarantined,omitempty"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`
}

// Stats reports service-level counters.
func (s *Server) Stats() Stats {
	return Stats{
		Ingested:      s.ingested.Value(),
		DroppedDups:   s.dropped.Value(),
		Subscriptions: int(s.subCount.Load()),
	}
}

// SubscriptionStats reports one profile's counters, including the
// decision-delay distribution over its retained emission buffer.
func (s *Server) SubscriptionStats(id int64) (SubscriptionStats, error) {
	sub, ok := s.lookup(id)
	if !ok {
		return SubscriptionStats{}, ErrNoSuchSubscription
	}
	return sub.stats(), nil
}

func (sub *subscription) stats() SubscriptionStats {
	// Counters and the delay histogram are atomic, so a stats poll only
	// takes sub.mu on the rare quarantined path (to read the reason).
	var reason string
	quarantined := sub.quarantined.Load()
	if quarantined {
		sub.mu.Lock()
		reason = sub.quarantineMsg
		sub.mu.Unlock()
	}
	return SubscriptionStats{
		Quarantined:      quarantined,
		QuarantineReason: reason,
		ID:               sub.id,
		Matched:          sub.matched.Value(),
		Emitted:          sub.nextSeq.Value(),
		TextMisses:       sub.textMisses.Value(),
		Algorithm:        sub.proc.Name(),
		Lambda:           sub.cfg.Lambda,
		Tau:              sub.cfg.Tau,
		Delay: DelaySummary{
			Count: int(sub.delays.Count()),
			Mean:  sub.delays.Mean(),
			Max:   sub.delays.Max(),
			P95:   sub.delays.Quantile(0.95),
		},
	}
}

// Metrics is the full observability snapshot served at GET /metrics.
type Metrics struct {
	Ingested      int64 `json:"ingested"`
	DroppedDups   int64 `json:"dropped_duplicates"`
	Subscriptions int   `json:"subscriptions"`
	MatchedTotal  int64 `json:"matched_total"`
	EmittedTotal  int64 `json:"emitted_total"`
	TextMisses    int64 `json:"text_misses"`
	Quarantines   int64 `json:"quarantines"`
	ActiveStreams int64 `json:"active_streams"`
	PushedTotal   int64 `json:"pushed_total"`
	Gaps          int64 `json:"gaps"`
	// RoutingSkipped counts the subscription feeds inverted routing elided
	// (posts × subscriptions with no keyword overlap).
	RoutingSkipped int64           `json:"routing_skipped"`
	Flushed        bool            `json:"flushed"`
	SLOs           []obs.SLOStatus `json:"slos,omitempty"`
	// Durability is the WAL/snapshot/recovery section; nil (omitted) when
	// the server runs in-memory only.
	Durability *DurabilityMetrics  `json:"durability,omitempty"`
	Profiles   []SubscriptionStats `json:"profiles"`
}

// Metrics aggregates service counters and every profile's snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.RLock()
	shards := slices.Clone(s.order)
	s.mu.RUnlock()
	m := Metrics{
		Ingested:       s.ingested.Value(),
		DroppedDups:    s.dropped.Value(),
		Subscriptions:  len(shards),
		Quarantines:    s.quarantines.Value(),
		ActiveStreams:  s.streams.Load(),
		PushedTotal:    s.pushed.Value(),
		Gaps:           s.gaps.Value(),
		RoutingSkipped: s.routingSkipped.Value(),
		Flushed:        s.closed.Load(),
		SLOs:           s.SLOs(),
		Durability:     s.durabilityMetrics(),
		Profiles:       make([]SubscriptionStats, 0, len(shards)),
	}
	for _, sub := range shards {
		st := sub.stats()
		m.MatchedTotal += st.Matched
		m.EmittedTotal += st.Emitted
		m.TextMisses += st.TextMisses
		m.Profiles = append(m.Profiles, st)
	}
	return m
}

// Health is the liveness snapshot served at GET /healthz.
type Health struct {
	// Status is "ok" while ingest is open, "flushed" after Flush, and
	// "degraded" when the durability layer latched read-only mode.
	Status        string `json:"status"`
	Subscriptions int    `json:"subscriptions"`
	Ingested      int64  `json:"ingested"`
	// DegradedReason carries the IO failure that latched read-only mode.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Health reports liveness.
func (s *Server) Health() Health {
	h := Health{Status: "ok", Ingested: s.ingested.Value(), Subscriptions: int(s.subCount.Load())}
	if s.closed.Load() {
		h.Status = "flushed"
	}
	if degraded, reason := s.Degraded(); degraded {
		// Degraded wins: it is the state an operator must act on.
		h.Status = "degraded"
		h.DegradedReason = reason
	}
	return h
}

// topicNames lists the topic names by label.
func topicNames(topics []match.Topic) []string {
	names := make([]string, len(topics))
	for i, t := range topics {
		names[i] = t.Name
	}
	return names
}

func parseStreamAlgo(name string) (mqdp.StreamAlgorithm, error) {
	switch name {
	case "", "streamscan+":
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
	return 0, fmt.Errorf("server: unknown algorithm %q", name)
}

// Digest renders a subscription's emissions as a user-facing digest. A
// digest summarizes whatever is retained, so a trimmed history (ErrGap) is
// tolerated rather than failed.
func (s *Server) Digest(id int64) (*digest.Digest, error) {
	es, err := s.Emissions(id, 0, 0)
	if err != nil && !errors.Is(err, ErrGap) {
		return nil, err
	}
	d := &digest.Digest{TopicCounts: make(map[string]int)}
	for _, e := range es {
		for _, name := range e.Topics {
			d.TopicCounts[name]++
		}
		d.Entries = append(d.Entries, digest.Entry{
			PostID: e.PostID,
			Value:  e.Time,
			Topics: e.Topics,
			Text:   e.Text,
		})
	}
	if len(d.Entries) > 0 {
		d.SpanLo = d.Entries[0].Value
		d.SpanHi = d.Entries[len(d.Entries)-1].Value
	}
	return d, nil
}
