// Package server implements the publish/subscribe front of the paper's
// architecture (Figure 1, §1's subscription scenario): users register
// profiles — a set of topic queries plus λ, τ and an algorithm choice — and
// a shared post stream is matched, near-duplicate filtered and diversified
// *per subscription*, each with its own streaming processor. §7.4 motivates
// exactly this shape: the per-post work must stay small because the
// algorithm "has to be executed for millions of users".
//
// Concurrency model: the Server's RWMutex guards only the subscription
// registry. All per-subscription state (matcher, processor, emission
// buffer, text cache) lives behind that subscription's own mutex, so
// readers poll other subscriptions unblocked while ingest feeds a post's
// routed candidates: inline when there are fewer than poolFanoutMin of
// them, otherwise in parallel on a GOMAXPROCS worker pool via
// internal/parallel. Ingest admission (order check, dedup, counters) is
// serialized by a separate mutex, which also guarantees every
// subscription sees posts in timestamp order: per-subscription emission
// sequences are identical on either path.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/digest"
	"mqdp/internal/faultinject"
	"mqdp/internal/match"
	"mqdp/internal/obs"
	"mqdp/internal/parallel"
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

// Emission is one diversified output item for a subscription.
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

// poolFanoutMin is the candidate count from which a post is fed on a
// GOMAXPROCS worker pool; smaller fan-outs run inline, where the pool
// hand-off costs more than the feeds it spreads (BenchmarkIngestFanout
// prices both paths). Flush applies it to the subscription count. A
// variable so tests can force either path.
var poolFanoutMin = 32

// pendingText queues a matched post for horizon-based text eviction.
type pendingText struct {
	id   int64
	time float64
}

// subscription is the per-user pipeline state. Everything below mu is
// guarded by it; the atomic counters are updated under mu but may be read
// lock-free by stats endpoints.
type subscription struct {
	id  int64
	cfg SubscriptionConfig

	// routeSyms are the matcher's distinct keyword symbols in the server's
	// shared symbol table — the posting keys this subscription occupies in
	// the routing index. Immutable after Subscribe.
	routeSyms []uint32

	mu      sync.Mutex
	matcher *match.Matcher
	proc    mqdp.Processor
	// labelBuf is the reused per-subscription match scratch: the matcher
	// appends labels into it so the no-match path allocates nothing. Only
	// an owned copy is handed to the processor (which retains its input).
	labelBuf []core.Label
	// buffer of emissions with monotonically increasing, contiguous Seq.
	emissions []Emission
	// emTrace is the aligned trace-ID sidecar for emissions: emTrace[i] is
	// the trace of the ingest request that produced emissions[i]. Kept out
	// of Emission itself so poll/wire payloads stay byte-identical with
	// tracing on or off (only SSE carries the trace, as an extra comment
	// line). Nil until the first traced delivery; zero-backfilled then.
	emTrace []obs.TraceID
	texts   map[int64]Post // recent matched posts awaiting a decision
	// pending[head:] mirrors texts insertion order for O(1) amortized
	// horizon eviction (posts arrive in time order).
	pending []pendingText
	head    int
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
	// fan-outs already holding the old snapshot). route.Index's mutex is a
	// leaf, so taking it under sub.mu cannot deadlock.
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
// concurrent use: ingest admission is serialized to preserve stream order,
// then each post is fed to its routed candidate subscriptions, on a worker
// pool once there are poolFanoutMin of them.
type Server struct {
	// mu guards only the registry (subs, order, nextID).
	mu     sync.RWMutex
	nextID int64
	subs   map[int64]*subscription
	// order is a copy-on-write snapshot of subs sorted by id: Flush, Metrics
	// and Snapshot walk it without holding mu while Subscribe/Unsubscribe
	// install new slices.
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
	// symBuf and candBuf are the fan-out scratch, reused under ingestMu
	// like wordBuf: the post's tokens resolved to deduplicated symbols
	// (shared read-only by every fan-out worker, reused only after the
	// fan-out completes), and the merged candidate subscriptions for them.
	symBuf  []uint32
	candBuf []route.Entry[*subscription]

	// Subscription routing: symtab interns every subscription keyword (and
	// resolves post tokens) to dense uint32 symbols shared by all matchers;
	// routes is the copy-on-write inverted index keyword symbol → sorted
	// subscription postings, read lock-free by ingest. subCount mirrors the
	// registry size for the routing_skipped accounting without taking mu.
	symtab         *route.Table
	routes         *route.Index[*subscription]
	subCount       atomic.Int64
	routingSkipped obs.Counter

	closed   atomic.Bool // latched by the first Flush
	ingested obs.Counter
	dropped  obs.Counter

	// cfg is the configuration New was given, read-only from then on. What
	// New derives from it sits below: the admission controller (nil =
	// unlimited), the registry-wired service instruments (nil = no
	// registry) and the durability runtime (nil = in-memory only).
	cfg       Config
	admission *admission
	obs       *serverObs
	dur       *durState

	// Fault-tolerance layer: idem replays ingest outcomes to retrying
	// clients, and shed/quarantines count the load-shedding and
	// panic-isolation decisions.
	idem        idemCache
	shed        obs.Counter
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
// zero value is a working in-memory server: no deduplication, no limits,
// no instrumentation.
type Config struct {
	// DupDistance and DupWindow drop near-duplicates within that SimHash
	// hamming distance over a window of that many recent posts before
	// matching. DupWindow ≤ 0 disables deduplication.
	DupDistance, DupWindow int
	// MaxStreams caps concurrently served push waiters — SSE streams plus
	// blocked long-polls; 0 means unlimited. Beyond the cap new streams are
	// refused with 503 + Retry-After rather than queued, so a stampede
	// degrades to polling instead of piling up goroutines.
	MaxStreams int
	// Admission bounds the ingest path; the zero value admits everything.
	Admission AdmissionConfig
	// IngestDeadline bounds the server-side wall time of one ingest
	// request (0 = none). A batch cut off mid-way reports the accepted
	// prefix with 503 + Retry-After so honoring clients resume, not resend.
	IngestDeadline time.Duration
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
		cfg:       cfg,
		subs:      make(map[int64]*subscription),
		symtab:    route.NewTable(),
		routes:    route.NewIndex[*subscription](),
		admission: newAdmission(cfg.Admission),
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
	// Compile the matcher against the shared symbol table: per-post
	// matching then compares dense uint32 symbols instead of hashing
	// keyword strings, and the returned symbols key this subscription's
	// posting lists in the routing index.
	routeSyms := matcher.CompileSymbols(s.symtab)
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
	sub := &subscription{
		id:        id,
		cfg:       cfg,
		routeSyms: routeSyms,
		matcher:   matcher,
		proc:      proc,
		texts:     make(map[int64]Post),
		delays:    obs.NewHistogram(obs.DelayBuckets),
		topk:      stream.NewTopK[Emission](k, cfg.TopKWindow),
	}
	s.subs[sub.id] = sub
	s.subCount.Store(int64(len(s.subs)))
	if o := s.obs; o != nil {
		o.subs.Set(float64(len(s.subs)))
	}
	// Copy-on-write: in-flight walks keep their snapshot. Ids normally
	// only grow; the sorted insert also covers replayed ids arriving after
	// a snapshot restore.
	s.order = insertOrdered(s.order, sub)
	// Post the new subscription under its keyword symbols (route.Index has
	// its own leaf mutex and publishes a fresh snapshot; in-flight fan-outs
	// keep theirs, same contract as the order slice).
	s.routes.Add(sub.id, sub, routeSyms)
	return sub.id, nil
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
	s.subCount.Store(int64(len(s.subs)))
	if o := s.obs; o != nil {
		o.subs.Set(float64(len(s.subs)))
	}
	order := make([]*subscription, 0, len(s.order)-1)
	for _, other := range s.order {
		if other.id != id {
			order = append(order, other)
		}
	}
	s.order = order
	s.mu.Unlock()
	// Withdraw the postings (idempotent: quarantine may have removed them
	// already) so routed ingest stops producing this candidate.
	s.routes.Remove(id, sub.routeSyms)
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
func (s *Server) ingestOne(ctx context.Context, p Post) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if s.started && p.Time < s.lastTime {
		return fmt.Errorf("%w: %v after %v", ErrOutOfOrder, p.Time, s.lastTime)
	}
	s.started = true
	s.lastTime = p.Time
	s.ingested.Inc()
	o := s.obs
	// Per-post span, a child of the request span when the caller carries
	// one (the HTTP path) and a fresh root otherwise (direct API use with a
	// tracer wired). Its trace ID follows the post through fan-out into the
	// emissions it produces.
	var span *obs.ActiveSpan
	if o != nil && o.tracer != nil {
		if parent := obs.FromContext(ctx); parent != nil {
			span = parent.Child("ingest.post")
		} else {
			span = o.tracer.StartTrace("ingest.post")
		}
		span.SetInt("post_id", p.ID)
		defer span.End()
	}
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	// Tokenize once per post: the deduper fingerprints these words, and
	// every candidate matches against their symbols (read-only during the
	// fan-out).
	s.wordBuf = textutil.AppendWords(s.wordBuf[:0], p.Text)
	words := s.wordBuf
	// Mirror the wire pool's oversized-scratch policy: one pathological
	// post must not pin a huge tokenize/routing scratch forever.
	if cap(s.wordBuf) > keepIngestScratch {
		s.wordBuf = nil
	}
	if o != nil {
		o.tokenizeTime.ObserveSince(start)
	}
	if s.dedup != nil && !s.dedup.OfferWords(words) {
		s.dropped.Inc()
		span.Set("dropped", "duplicate")
		return nil
	}
	// Inverted routing: resolve the post's tokens to symbols (unknown
	// tokens are nobody's keyword and drop out here), k-way-merge the
	// candidate postings in subscription-ID order, and feed only those.
	// Every skipped subscription would have matched nothing, so emissions
	// are byte-identical to feeding every subscription
	// (TestRoutingEquivalence holds the broadcast oracle).
	s.symBuf = route.DedupSyms(s.symtab.AppendSyms(s.symBuf[:0], words))
	syms := s.symBuf
	if cap(s.symBuf) > keepIngestScratch {
		s.symBuf = nil
	}
	s.candBuf = s.routes.Candidates(s.candBuf[:0], syms)
	cands := s.candBuf
	if skipped := s.subCount.Load() - int64(len(cands)); skipped > 0 {
		s.routingSkipped.Add(skipped)
	}
	span.SetInt("routing_candidates", int64(len(cands)))
	if o != nil {
		o.routingCands.Observe(float64(len(cands)))
	}
	err := s.fanout(cands, p, syms, span)
	if o != nil {
		if span != nil {
			o.ingestFanout.ObserveTraced(time.Since(start).Seconds(), span.TraceID())
		} else {
			o.ingestFanout.ObserveSince(start)
		}
	}
	span.SetError(err)
	return err
}

// fanout feeds p to every candidate and returns the lowest-index failure.
// Every feed runs on either path, so both report the same error.
func (s *Server) fanout(cands []route.Entry[*subscription], p Post, syms []uint32, span *obs.ActiveSpan) error {
	if len(cands) >= poolFanoutMin {
		return parallel.FirstErr(0, len(cands), func(i int) error { return cands[i].V.feed(p, syms, s, span) })
	}
	var first error
	for _, c := range cands {
		if err := c.V.feed(p, syms, s, span); first == nil {
			first = err
		}
	}
	return first
}

// keepIngestScratch bounds the per-post scratch (words, symbols) retained
// between ingests, in entries — the slice-pool analogue of the wire
// codec's 8 MiB byte cap.
const keepIngestScratch = 1 << 12

// feed matches and processes one post for a single subscription. syms is
// the post's tokenization resolved through the server's symbol table,
// shared read-only by every fan-out worker; the compiled matcher compares
// uint32 symbols instead of hashing strings. A panic anywhere in the
// per-subscription pipeline (matcher, processor, delivery — or a scripted
// chaos panic from cfg.Faults) quarantines this subscription and returns
// nil: one poisoned profile must not fail the ingest or kill the process.
func (sub *subscription) feed(p Post, syms []uint32, s *Server, parent *obs.ActiveSpan) (err error) {
	if sub.quarantined.Load() {
		return nil
	}
	o := s.obs
	sub.mu.Lock()
	defer sub.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			sub.quarantine(fmt.Sprintf("panic on post %d: %v", p.ID, r), s)
			err = nil
		}
	}()
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	// Match into the reused per-subscription scratch: the no-match path
	// allocates nothing, and a match only pays for the owned copy handed
	// to the processor below.
	labels := sub.matcher.MatchSymbolsInto(sub.labelBuf, syms)
	if labels != nil {
		sub.labelBuf = labels[:0]
	}
	if o != nil {
		o.matchTime.ObserveSince(start)
	}
	if len(labels) == 0 {
		return nil
	}
	// The processor retains its input Labels slice (pending buffers), so
	// hand it an owned copy rather than the scratch.
	labels = append(make([]core.Label, 0, len(labels)), labels...)
	sub.matched.Inc()
	o.onMatch()
	if inj := s.cfg.Faults; inj != nil {
		if err := inj.Fire(fmt.Sprintf("sub%d.process", sub.id)); err != nil {
			return fmt.Errorf("server: subscription %d: %w", sub.id, err)
		}
	}
	sub.texts[p.ID] = p
	sub.pending = append(sub.pending, pendingText{id: p.ID, time: p.Time})
	// The stream-processor decision span: only matched subscriptions reach
	// here, so an untraced non-matching fan-out stays span-free.
	procSpan := parent.Child("sub.process")
	if procSpan != nil {
		procSpan.SetInt("subscription", sub.id)
		procSpan.Set("algorithm", sub.proc.Name())
		procSpan.SetInt("labels", int64(len(labels)))
	}
	es, err := sub.proc.Process(mqdp.Post{ID: p.ID, Value: p.Time, Labels: labels})
	if err != nil {
		procSpan.SetError(err)
		procSpan.End()
		return fmt.Errorf("server: subscription %d: %w", sub.id, err)
	}
	procSpan.SetInt("decisions", int64(len(es)))
	procSpan.End()
	var delSpan *obs.ActiveSpan
	if parent != nil && len(es) > 0 {
		delSpan = parent.Child("sub.deliver")
		delSpan.SetInt("subscription", sub.id)
	}
	sub.deliver(es, o, parent.TraceID())
	delSpan.End()
	sub.gc(p.Time)
	// Slide the top-k window to this post's time; waiters only wake when
	// the visible view actually changed (deliver wakes them for appends).
	if sub.topk.Advance(p.Time) {
		sub.notifyLocked()
	}
	return nil
}

// deliver converts processor emissions into client-facing records. A
// decision consumes its cached text; a decision whose text was already
// evicted is counted in textMisses and skipped rather than emitted blank.
// Caller holds sub.mu.
func (sub *subscription) deliver(es []mqdp.Emission, o *serverObs, trace obs.TraceID) {
	appended := false
	for _, e := range es {
		src, ok := sub.texts[e.Post.ID]
		if !ok {
			sub.textMisses.Inc()
			o.onMiss()
			continue
		}
		delete(sub.texts, e.Post.ID)
		names := make([]string, len(e.Post.Labels))
		for i, a := range e.Post.Labels {
			names[i] = sub.matcher.Topic(a).Name
		}
		seq := sub.nextSeq.Add(1)
		delay := e.EmitAt - e.Post.Value
		sub.delays.Observe(delay)
		o.onEmit(delay, trace)
		em := Emission{
			Seq:    seq,
			PostID: e.Post.ID,
			Time:   e.Post.Value,
			Text:   src.Text,
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

// gc drops remembered texts whose decision windows have passed and caps the
// emission buffer. The pending queue mirrors insertion (= time) order, so
// eviction is O(1) amortized per post. Caller holds sub.mu.
func (sub *subscription) gc(now float64) {
	horizon := now - sub.cfg.Lambda - sub.cfg.Tau - 1
	for sub.head < len(sub.pending) && sub.pending[sub.head].time < horizon {
		delete(sub.texts, sub.pending[sub.head].id) // no-op if already decided
		sub.head++
	}
	if sub.head > 64 && sub.head*2 >= len(sub.pending) {
		sub.pending = append(sub.pending[:0], sub.pending[sub.head:]...)
		sub.head = 0
	}
	if len(sub.emissions) > maxEmissionBuffer {
		sub.emissions = append([]Emission(nil), sub.emissions[len(sub.emissions)-maxEmissionBuffer:]...)
		if sub.emTrace != nil {
			sub.emTrace = append([]obs.TraceID(nil), sub.emTrace[len(sub.emTrace)-maxEmissionBuffer:]...)
		}
	}
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
	shards := s.order
	s.mu.RUnlock()
	o := s.obs
	workers := 1 // inline below the pool threshold, like the ingest fan-out
	if len(shards) >= poolFanoutMin {
		workers = 0
	}
	parallel.ForEach(workers, len(shards), func(i int) {
		sub := shards[i]
		sub.mu.Lock()
		defer sub.mu.Unlock()
		defer func() {
			// A processor that panics while flushing is quarantined like
			// one that panics mid-stream; the other subscriptions flush on.
			if r := recover(); r != nil {
				sub.quarantine(fmt.Sprintf("panic on flush: %v", r), s)
			}
		}()
		if !sub.quarantined.Load() {
			sub.deliver(sub.proc.Flush(), o, obs.TraceID{})
		}
		// Every decision has landed; whatever text remains was rejected.
		clear(sub.texts)
		sub.pending, sub.head = nil, 0
		// The stream is over: wake every push waiter with the terminal
		// state instead of leaving them parked until client timeouts.
		sub.terminateLocked(EndReasonFlushed)
	})
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
	// TextMisses counts decisions whose cached text had been gc'd before
	// the decision landed (the emission is dropped, not emitted blank).
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
	s.mu.RLock()
	n := len(s.subs)
	s.mu.RUnlock()
	return Stats{
		Ingested:      s.ingested.Value(),
		DroppedDups:   s.dropped.Value(),
		Subscriptions: n,
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
	Sheds         int64 `json:"sheds"`
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
	shards := s.order
	s.mu.RUnlock()
	m := Metrics{
		Ingested:       s.ingested.Value(),
		DroppedDups:    s.dropped.Value(),
		Subscriptions:  len(shards),
		Sheds:          s.shed.Value(),
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
	h := Health{Status: "ok", Ingested: s.ingested.Value()}
	if s.closed.Load() {
		h.Status = "flushed"
	}
	if degraded, reason := s.Degraded(); degraded {
		// Degraded wins: it is the state an operator must act on.
		h.Status = "degraded"
		h.DegradedReason = reason
	}
	s.mu.RLock()
	h.Subscriptions = len(s.subs)
	s.mu.RUnlock()
	return h
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
