package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mqdp/internal/match"
	"mqdp/internal/obs"
	"mqdp/internal/simhash"
	"mqdp/internal/stream"
	"mqdp/internal/wal"
	"mqdp/internal/wire"
)

// Durability layer: every state-changing operation is written to a
// write-ahead log before it is applied, and the full server state is
// periodically snapshotted, so recovery = load the newest snapshot +
// replay the WAL suffix through the exact same code paths live requests
// take.
//
// WAL record kinds (the payload formats are versioned implicitly by the
// segment version in internal/wal):
//
//	recBatch       uvarint key length, idempotency key bytes, then one
//	               internal/wire KindStreamPosts frame with the batch.
//	               Appended BEFORE the batch is applied.
//	recSubscribe   JSON {"id", "cfg"}
//	recUnsubscribe JSON {"id"}
//	recFlush       empty
//	recQuarantine  JSON {"id", "msg"}
//	recBatchAck    uvarint accepted count, uvarint HTTP status, error
//	               string. Appended AFTER its recBatch applied, committed
//	               (and fsynced per policy) before the client sees the
//	               response — the ack is the durable record of the exact
//	               outcome the client was told.
//
// Ingest journaling is a batch/ack pair around the apply: the batch
// record pins what the client sent, the ack pins what the server
// answered (the accepted prefix length and the recorded outcome). Replay
// applies exactly the acked prefix and restores the outcome verbatim, so
// a batch the live run cut mid-way (request deadline) recovers to the
// same state and idempotency answer the client observed — never a
// deadline-free recomputation that quietly applies more than the client
// was told. A batch record with no ack in the log means the crash landed
// between append and response: the client never heard an outcome, so
// replay applies the batch in full and records the recomputed outcome,
// exactly what the interrupted live call would have produced. One Commit
// per pair (at the ack) keeps the fsync cost at one per ingest request.
//
// Consistency: walBatchMu serializes {batch append, apply, ack append,
// idempotency-cache put} for ingest batches and registry mutations, and
// Snapshot takes it (then ingestMu) before cutting — so a snapshot at
// LSN N contains the effects of exactly the records ≤ N (and never cuts
// between a batch and its ack), and replay from N+1 is neither lossy nor
// double-applied. Quarantine records are appended mid-apply (under the
// ingesting caller's walBatchMu, between that batch and its ack) and
// their replay application is idempotent, as is every other record kind.
//
// Exactly-once across a crash: the batch record carries the client's
// idempotency key and the ack carries the recorded outcome, which replay
// restores into the idempotency cache verbatim. A client retrying across
// the crash therefore gets the recorded outcome with
// Idempotent-Replay: true, exactly as if the server had never died.
const (
	recBatch       byte = 1
	recSubscribe   byte = 2
	recUnsubscribe byte = 3
	recFlush       byte = 4
	recQuarantine  byte = 5
	recBatchAck    byte = 6
)

// ErrReadOnly reports that the durability layer hit an IO failure (disk
// full, fsync error) and the server degraded to read-only: polls, stats
// and streams keep serving, ingest and registry mutations are refused
// with 503 + Retry-After until the process is restarted on healthy
// storage. Refusing is the honest failure mode — accepting writes that
// cannot be made durable would silently void the recovery contract.
var ErrReadOnly = errors.New("server: durability degraded to read-only (WAL write failed)")

// DurabilityConfig wires a Server to a data directory.
type DurabilityConfig struct {
	// Dir is the WAL + snapshot directory (created if missing); empty
	// means no durability.
	Dir string
	// Fsync picks the WAL fsync cadence (wal.SyncBatch, SyncInterval,
	// SyncOff). The interval tick is wal.DefaultInterval and segments
	// rotate at 64 MiB, wal's default.
	Fsync wal.SyncPolicy
	// SnapshotInterval takes a state snapshot on a wall-clock timer
	// (0 = only on Close).
	SnapshotInterval time.Duration
}

// durState is the live durability runtime of one Server.
type durState struct {
	cfg DurabilityConfig
	log *wal.Log

	// walBatchMu serializes {WAL append, apply, idem put} so the log
	// order equals the apply order and snapshots cut between batches,
	// never inside one. Ordered strictly before ingestMu.
	walBatchMu sync.Mutex

	// pending is the replay-time batch awaiting its ack record: a recBatch
	// stashes here and the matching recBatchAck applies the acked prefix.
	// Only touched by the single-threaded recovery loop.
	pending *pendingBatch

	// closeOnce makes Close idempotent: concurrent shutdown paths must not
	// double-close the snapshot-loop channel.
	closeOnce sync.Once

	// degraded latches on the first WAL/snapshot IO failure.
	degraded       atomic.Bool
	degradedReason atomic.Pointer[string]

	lastSnapLSN atomic.Uint64

	// Recovery accounting, written once during New.
	replayedRecords int64
	replayedBatches int64
	replayedPosts   int64

	snapStop chan struct{}
	snapDone chan struct{}
}

// DurabilityMetrics is the durability section of Metrics; nil when the
// layer is disabled (keeping the JSON byte-identical to a WAL-less build).
type DurabilityMetrics struct {
	Fsync           string `json:"fsync"`
	NextLSN         uint64 `json:"next_lsn"`
	SnapshotLSN     uint64 `json:"snapshot_lsn"`
	Segments        int    `json:"segments"`
	Degraded        bool   `json:"degraded"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	RepairedBytes   int64  `json:"repaired_tail_bytes"`
	ReplayedRecords int64  `json:"replayed_records"`
	ReplayedBatches int64  `json:"replayed_batches"`
	ReplayedPosts   int64  `json:"replayed_posts"`
	WALRecords      int64  `json:"wal_records"`
	Snapshots       int64  `json:"snapshots"`
}

// recover is the durable half of New: it opens (or creates) the data
// directory, restores the newest valid snapshot, replays the WAL suffix
// through the regular ingest/registry paths, and starts journaling every
// subsequent mutation.
func (s *Server) recover() error {
	cfg := s.cfg.Durability
	log, err := wal.Open(cfg.Dir, wal.Options{
		Policy: cfg.Fsync,
		// Chaos hook: the schedule's disk actions surface here as IO
		// failures ("wal.append@3=disk:..." etc.).
		Failpoint: func(op string) error {
			if in := s.cfg.Faults; in != nil {
				return in.Fire(op)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	d := &durState{cfg: cfg, log: log}
	snapLSN := uint64(0)
	lsn, payload, err := wal.LoadLatestSnapshot(cfg.Dir)
	switch {
	case err == nil:
		if err := s.restoreSnapshot(payload); err != nil {
			log.Close()
			return fmt.Errorf("server: restoring snapshot at LSN %d: %w", lsn, err)
		}
		snapLSN = lsn
	case errors.Is(err, wal.ErrNoSnapshot):
		// Fresh directory (or snapshots all damaged with an empty prefix):
		// state starts empty and the full WAL replays.
	default:
		log.Close()
		return err
	}
	d.lastSnapLSN.Store(snapLSN)
	// Replay runs before s.dur is set, so the records it applies are not
	// journaled a second time: the public paths it reuses (Unsubscribe,
	// Flush, quarantine) see an in-memory server.
	if err := log.Replay(snapLSN+1, func(rec wal.Record) error {
		return s.applyWALRecord(d, rec)
	}); err != nil {
		log.Close()
		return fmt.Errorf("server: WAL replay: %w", err)
	}
	// A batch whose ack never reached the log: the crash cut between
	// append and response, so the client never heard an outcome — apply
	// it in full and record the recomputed result.
	s.finishPendingBatch(d)
	s.dur = d
	if l := s.cfg.Logger; l != nil {
		l.Info("durability enabled",
			slog.String("dir", cfg.Dir),
			slog.String("fsync", cfg.Fsync.String()),
			slog.Uint64("snapshot_lsn", snapLSN),
			slog.Int64("replayed_records", d.replayedRecords),
			slog.Int64("replayed_posts", d.replayedPosts),
			slog.Int64("repaired_tail_bytes", log.RepairedBytes()))
	}
	if cfg.SnapshotInterval > 0 {
		d.snapStop = make(chan struct{})
		d.snapDone = make(chan struct{})
		go d.snapLoop(s)
	}
	return nil
}

// Close takes a final snapshot (graceful shutdowns restart with zero
// replay) and closes the WAL. A no-op on an in-memory server, and safe
// under concurrent calls: the first caller shuts down, later ones wait for
// it and return nil.
func (s *Server) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	var firstErr error
	d.closeOnce.Do(func() {
		if d.snapStop != nil {
			close(d.snapStop)
			<-d.snapDone
		}
		if !d.degraded.Load() {
			firstErr = s.Snapshot()
		}
		if err := d.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// Degraded reports whether the durability layer latched read-only mode,
// and why.
func (s *Server) Degraded() (bool, string) {
	d := s.dur
	if d == nil || !d.degraded.Load() {
		return false, ""
	}
	reason := ""
	if r := d.degradedReason.Load(); r != nil {
		reason = *r
	}
	return true, reason
}

// durabilityMetrics renders the Metrics section; nil when disabled.
func (s *Server) durabilityMetrics() *DurabilityMetrics {
	d := s.dur
	if d == nil {
		return nil
	}
	degraded, reason := s.Degraded()
	return &DurabilityMetrics{
		Fsync:           d.cfg.Fsync.String(),
		NextLSN:         d.log.NextLSN(),
		SnapshotLSN:     d.lastSnapLSN.Load(),
		Segments:        d.log.Segments(),
		Degraded:        degraded,
		DegradedReason:  reason,
		RepairedBytes:   d.log.RepairedBytes(),
		ReplayedRecords: d.replayedRecords,
		ReplayedBatches: d.replayedBatches,
		ReplayedPosts:   d.replayedPosts,
		WALRecords:      s.walRecords.Value(),
		Snapshots:       s.walSnapshots.Value(),
	}
}

// degrade latches read-only mode (first cause wins) and returns the
// client-facing typed error.
func (s *Server) degrade(d *durState, cause error) error {
	if !d.degraded.Swap(true) {
		msg := cause.Error()
		d.degradedReason.Store(&msg)
		if l := s.cfg.Logger; l != nil {
			l.Error("durability degraded to read-only", slog.String("cause", msg))
		}
	}
	return fmt.Errorf("%w: %w", ErrReadOnly, cause)
}

// snapLoop drives the periodic snapshot timer.
func (d *durState) snapLoop(s *Server) {
	defer close(d.snapDone)
	t := time.NewTicker(d.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-d.snapStop:
			return
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				if l := s.cfg.Logger; l != nil {
					l.Error("periodic snapshot failed", slog.String("error", err.Error()))
				}
			}
		}
	}
}

// IngestBatch applies one client batch atomically with respect to
// durability: the whole batch (with its idempotency key) becomes one WAL
// record appended before any post is applied, the recorded outcome is
// journaled as the matching ack record and committed before the client
// sees it, and the idempotency-cache entry lands under the same critical
// section — so a snapshot can never observe an applied batch without its
// replay entry. It returns the client-facing result, the HTTP status,
// and the underlying error (nil on full acceptance).
//
// A non-empty key makes the call exactly-once: the first request for the
// key owns it until its outcome is recorded, and every other request with
// that key — later, or concurrent with the first — is answered with that
// recorded outcome (res.Replayed set, nil error) without applying or
// recording anything.
func (s *Server) IngestBatch(ctx context.Context, batch []Post, key string) (IngestResult, int, error) {
	if key != "" {
		e, replay, err := s.idem.claim(ctx, key)
		if err != nil {
			return IngestResult{Error: err.Error()}, statusFor(err), err
		}
		if replay {
			e.res.Replayed = true
			return e.res, e.status, nil
		}
	}
	d := s.dur
	if d != nil {
		d.walBatchMu.Lock()
		defer d.walBatchMu.Unlock()
	}
	var outcome *idemEntry
	if key != "" {
		// Deferred after the lock so that it runs before the unlock: the
		// outcome is recorded inside the critical section.
		defer func() { s.idem.settle(key, outcome) }()
	}
	if d != nil {
		if d.degraded.Load() {
			return IngestResult{Error: ErrReadOnly.Error()}, http.StatusServiceUnavailable, ErrReadOnly
		}
		if err := d.appendBatch(s, key, batch); err != nil {
			// Nothing was applied; the client retries against a healthy
			// replica (or after a restart). No idempotency entry: the
			// outcome "rejected read-only" is not a durable application.
			return IngestResult{Error: err.Error()}, http.StatusServiceUnavailable, err
		}
	}
	accepted, err := s.applyBatch(ctx, batch)
	res := IngestResult{Accepted: accepted}
	status := http.StatusOK
	if err != nil {
		res.Error = err.Error()
		status = statusFor(err)
	}
	if d != nil {
		if ackErr := d.appendBatchAck(s, accepted, status, res.Error); ackErr != nil {
			// The outcome could not be made durable, so it must not be
			// reported: a client holding an OK for a batch the restarted
			// server never replays would lose data silently. Degraded mode
			// refuses the retry until a restart, whose replay either never
			// sees the batch (retry re-drives it) or finds it un-acked and
			// applies it in full — once, either way.
			return IngestResult{Error: ackErr.Error()}, http.StatusServiceUnavailable, ackErr
		}
	}
	outcome = &idemEntry{res: res, status: status}
	return res, status, err
}

// applyBatch feeds the batch post-by-post through the regular ingest
// pipeline, stopping at the first failure; the accepted prefix stays
// applied (the deadline/ordering contract of the HTTP API).
func (s *Server) applyBatch(ctx context.Context, batch []Post) (int, error) {
	accepted := 0
	for i := range batch {
		if err := s.ingestOne(ctx, batch[i]); err != nil {
			return accepted, err
		}
		accepted++
	}
	return accepted, nil
}

// appendBatch journals one ingest batch record, buffered: the commit (and
// fsync per policy) happens once, at the matching ack, so the batch/ack
// pair costs a single fsync. Failures degrade the server to read-only.
func (d *durState) appendBatch(s *Server, key string, batch []Post) error {
	o := s.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	enc := wire.GetEncoder()
	posts := make([]wire.StreamPost, len(batch))
	for i := range batch {
		posts[i] = wire.StreamPost(batch[i])
	}
	frame := enc.EncodeStreamPosts(posts, wire.DefaultCompressThreshold)
	var kl [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(kl[:], uint64(len(key)))
	payload := make([]byte, 0, n+len(key)+len(frame))
	payload = append(payload, kl[:n]...)
	payload = append(payload, key...)
	payload = append(payload, frame...)
	wire.PutEncoder(enc)
	if _, err := d.log.Append(recBatch, payload); err != nil {
		return s.degrade(d, err)
	}
	if o != nil {
		o.walAppendTime.ObserveSince(start)
	}
	s.walRecords.Inc()
	return nil
}

// appendBatchAck journals the outcome of the batch that was just applied
// and commits the pair, making both kill-safe (and durable per the fsync
// policy) before the client is answered.
func (d *durState) appendBatchAck(s *Server, accepted, status int, errmsg string) error {
	var tmp [binary.MaxVarintLen64]byte
	payload := make([]byte, 0, 2*binary.MaxVarintLen64+len(errmsg))
	n := binary.PutUvarint(tmp[:], uint64(accepted))
	payload = append(payload, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(status))
	payload = append(payload, tmp[:n]...)
	payload = append(payload, errmsg...)
	if _, err := d.log.Append(recBatchAck, payload); err != nil {
		return s.degrade(d, err)
	}
	o := s.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	if err := d.log.Commit(); err != nil {
		return s.degrade(d, err)
	}
	if o != nil {
		o.walSyncTime.ObserveSince(start)
	}
	s.walRecords.Inc()
	return nil
}

// decodeBatchAck parses a recBatchAck payload.
func decodeBatchAck(data []byte) (accepted, status int, errmsg string, err error) {
	a, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, "", errors.New("server: malformed WAL ack record")
	}
	st, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return 0, 0, "", errors.New("server: malformed WAL ack record")
	}
	return int(a), int(st), string(data[n+m:]), nil
}

// decodeBatchRecord parses a recBatch payload back into key + posts.
func decodeBatchRecord(data []byte) (key string, posts []Post, err error) {
	klen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < klen {
		return "", nil, errors.New("server: malformed WAL batch record key")
	}
	key = string(data[n : n+int(klen)])
	frame := data[n+int(klen):]
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	kind, frameBody, _, err := dec.DecodeFrame(frame)
	if err != nil {
		return "", nil, err
	}
	if kind != wire.KindStreamPosts {
		return "", nil, fmt.Errorf("server: WAL batch record carries frame kind %#x", kind)
	}
	sps, err := wire.AppendStreamPosts(nil, frameBody)
	if err != nil {
		return "", nil, err
	}
	posts = make([]Post, len(sps))
	for i := range sps {
		posts[i] = Post(sps[i])
	}
	return key, posts, nil
}

// Registry / terminal-state journal appends. A failure degrades the
// server and returns the ErrReadOnly-wrapped error.

func (s *Server) durAppendSubscribe(d *durState, id int64, cfg SubscriptionConfig) error {
	payload, _ := json.Marshal(struct {
		ID  int64              `json:"id"`
		Cfg SubscriptionConfig `json:"cfg"`
	}{id, cfg})
	return s.durAppend(d, recSubscribe, payload, true)
}

func (s *Server) durAppendUnsubscribe(d *durState, id int64) error {
	payload, _ := json.Marshal(struct {
		ID int64 `json:"id"`
	}{id})
	return s.durAppend(d, recUnsubscribe, payload, true)
}

// durAppendQuarantine journals a quarantine latch. Called under sub.mu
// from the ingest fan-out, whose batch already holds walBatchMu — the
// record lands right after the batch that poisoned the pipeline.
func (s *Server) durAppendQuarantine(id int64, msg string) {
	d := s.dur
	if d == nil || d.degraded.Load() {
		return
	}
	payload, _ := json.Marshal(struct {
		ID  int64  `json:"id"`
		Msg string `json:"msg"`
	}{id, msg})
	// No commit: the latch rides its own batch's ack commit (it lands
	// between the batch record and the ack). A deterministic panic recurs
	// on replay regardless; only a nondeterministically injected one can
	// be lost with the tail. A failed append only degrades the server: the
	// quarantine stands.
	_ = s.durAppend(d, recQuarantine, payload, false)
}

func (s *Server) durAppendFlush(d *durState) error {
	return s.durAppend(d, recFlush, nil, true)
}

func (s *Server) durAppend(d *durState, kind byte, payload []byte, commit bool) error {
	if _, err := d.log.Append(kind, payload); err != nil {
		return s.degrade(d, err)
	}
	if commit {
		if err := d.log.Commit(); err != nil {
			return s.degrade(d, err)
		}
	}
	s.walRecords.Inc()
	return nil
}

// pendingBatch is a journaled ingest batch seen during replay whose ack
// record has not arrived yet.
type pendingBatch struct {
	key   string
	posts []Post
	skip  bool // the idempotency cache already holds this key: double-keyed record
}

// applyWALRecord replays one journal record through the live code paths.
// Batch application errors (out-of-order posts, closed stream) are
// recorded outcomes — the live run saw the same thing — never replay
// failures; only undecodable payloads abort recovery.
func (s *Server) applyWALRecord(d *durState, rec wal.Record) error {
	d.replayedRecords++
	switch rec.Kind {
	case recBatch:
		key, posts, err := decodeBatchRecord(rec.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		if d.pending != nil {
			// An un-acked batch followed by another batch: a directory
			// written before acks existed. Apply it in full — exactly the
			// replay those logs were written for.
			s.finishPendingBatch(d)
		}
		skip := false
		if key != "" {
			if _, ok := s.idem.get(key); ok {
				// Already applied (double-keyed record): replay must not
				// apply a batch twice any more than the live path would.
				skip = true
			}
		}
		d.pending = &pendingBatch{key: key, posts: posts, skip: skip}
	case recBatchAck:
		accepted, status, errmsg, err := decodeBatchAck(rec.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		pb := d.pending
		d.pending = nil
		if pb == nil || pb.skip {
			return nil
		}
		if accepted > len(pb.posts) {
			accepted = len(pb.posts)
		}
		// Apply exactly the prefix the live run accepted and restore the
		// outcome the client was told, verbatim — never a deadline-free
		// recomputation that could accept more than the response reported.
		d.replayedBatches++
		n, _ := s.applyBatch(context.Background(), pb.posts[:accepted])
		d.replayedPosts += int64(n)
		if pb.key != "" {
			s.idem.put(pb.key, idemEntry{res: IngestResult{Accepted: accepted, Error: errmsg}, status: status})
		}
	case recSubscribe:
		var v struct {
			ID  int64              `json:"id"`
			Cfg SubscriptionConfig `json:"cfg"`
		}
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		if _, err := s.subscribe(v.ID, v.Cfg); err != nil {
			return fmt.Errorf("record %d: resubscribe %d: %w", rec.LSN, v.ID, err)
		}
	case recUnsubscribe:
		var v struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		if err := s.Unsubscribe(v.ID); err != nil && !errors.Is(err, ErrNoSuchSubscription) {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
	case recFlush:
		s.Flush()
	case recQuarantine:
		var v struct {
			ID  int64  `json:"id"`
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("record %d: %w", rec.LSN, err)
		}
		if sub, ok := s.lookup(v.ID); ok {
			sub.mu.Lock()
			sub.quarantine(v.Msg, s)
			sub.mu.Unlock()
		}
	default:
		// Unknown kinds are forward-compatibility: a newer writer's record
		// is skipped, not fatal.
	}
	return nil
}

// finishPendingBatch applies a journaled batch whose ack never reached
// the log — the crash (or a pre-ack-format writer) cut between apply and
// response, so no client ever heard an outcome. The batch applies in
// full, deadline-free, and the recomputed outcome is recorded exactly as
// the interrupted live call would have recorded it.
func (s *Server) finishPendingBatch(d *durState) {
	pb := d.pending
	d.pending = nil
	if pb == nil || pb.skip {
		return
	}
	d.replayedBatches++
	accepted, err := s.applyBatch(context.Background(), pb.posts)
	d.replayedPosts += int64(accepted)
	if pb.key != "" {
		res := IngestResult{Accepted: accepted}
		status := http.StatusOK
		if err != nil {
			res.Error = err.Error()
			status = statusFor(err)
		}
		s.idem.put(pb.key, idemEntry{res: res, status: status})
	}
}

// Snapshot persists the full server state, stamped with the LSN of the
// last journaled record, then rotates and prunes the WAL — after a
// snapshot, recovery replays only the suffix written since.
func (s *Server) Snapshot() error {
	d := s.dur
	if d == nil {
		return errors.New("server: durability not enabled")
	}
	if d.degraded.Load() {
		return ErrReadOnly
	}
	// The cut: no batch between its append and apply (walBatchMu), no
	// ingest mid-fan-out (ingestMu). Registry mutations also hold
	// walBatchMu, so the LSN read below exactly covers the state captured.
	d.walBatchMu.Lock()
	defer d.walBatchMu.Unlock()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	o := s.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	lsn := d.log.NextLSN() - 1
	payload, err := s.encodeSnapshot()
	if err != nil {
		return err
	}
	if _, err := wal.WriteSnapshot(d.cfg.Dir, lsn, payload); err != nil {
		return s.degrade(d, err)
	}
	d.lastSnapLSN.Store(lsn)
	s.walSnapshots.Inc()
	if o != nil {
		o.snapshotTime.ObserveSince(start)
	}
	// Retention: seal the current segment and drop what no retained
	// snapshot could ever need. Pruning stops at the OLDEST retained
	// snapshot's LSN, not this one's: if this snapshot file turns out
	// damaged, recovery falls back a generation and replays from there —
	// the records in between must still exist. Failures here degrade (the
	// log's sticky error would refuse the next append anyway); pruning is
	// best effort.
	if err := d.log.Rotate(); err != nil {
		return s.degrade(d, err)
	}
	pruneTo := lsn
	if oldest, ok := wal.OldestSnapshotLSN(d.cfg.Dir); ok && oldest < pruneTo {
		pruneTo = oldest
	}
	_ = d.log.Prune(pruneTo)
	return nil
}

// Serializable snapshot state. Everything is exported mirror structs so
// encoding/gob round-trips across processes of the same binary.

type walPendingText struct {
	ID   int64
	Time float64
}

type walSubSnap struct {
	ID            int64
	Cfg           SubscriptionConfig
	Proc          *stream.ProcState
	Emissions     []Emission
	NextSeq       int64
	Matched       int64
	TextMisses    int64
	Delays        obs.HistogramState
	Texts         []Post
	Pending       []walPendingText
	TopK          stream.TopKState[Emission]
	Done          bool
	DoneReason    string
	Quarantined   bool
	QuarantineMsg string
}

type walSnap struct {
	NextID         int64
	LastTime       float64
	Started        bool
	Closed         bool
	Dedup          *simhash.DeduperState
	Ingested       int64
	Dropped        int64
	Shed           int64
	Quarantines    int64
	Gaps           int64
	Pushed         int64
	RoutingSkipped int64
	Subs           []walSubSnap
	Idem           []IdemSnap
}

// encodeSnapshot captures the full server state. Caller holds walBatchMu
// and ingestMu; per-subscription mutexes are taken one at a time.
func (s *Server) encodeSnapshot() ([]byte, error) {
	s.mu.RLock()
	shards := s.order
	nextID := s.nextID
	s.mu.RUnlock()
	snap := walSnap{
		NextID:         nextID,
		LastTime:       s.lastTime,
		Started:        s.started,
		Closed:         s.closed.Load(),
		Ingested:       s.ingested.Value(),
		Dropped:        s.dropped.Value(),
		Shed:           s.shed.Value(),
		Quarantines:    s.quarantines.Value(),
		Gaps:           s.gaps.Value(),
		Pushed:         s.pushed.Value(),
		RoutingSkipped: s.routingSkipped.Value(),
		Idem:           s.idem.export(),
	}
	if s.dedup != nil {
		st := s.dedup.State()
		snap.Dedup = &st
	}
	snap.Subs = make([]walSubSnap, 0, len(shards))
	for _, sub := range shards {
		sub.mu.Lock()
		ss, err := captureSub(sub)
		sub.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("server: snapshot of subscription %d: %w", sub.id, err)
		}
		snap.Subs = append(snap.Subs, ss)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("server: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// captureSub deep-copies one subscription's pipeline state. Caller holds
// sub.mu. The emission trace sidecar is trace-scoped and not persisted.
func captureSub(sub *subscription) (walSubSnap, error) {
	proc, err := stream.CaptureProcessor(sub.proc)
	if err != nil {
		return walSubSnap{}, err
	}
	ss := walSubSnap{
		ID:            sub.id,
		Cfg:           sub.cfg,
		Proc:          proc,
		Emissions:     append([]Emission(nil), sub.emissions...),
		NextSeq:       sub.nextSeq.Value(),
		Matched:       sub.matched.Value(),
		TextMisses:    sub.textMisses.Value(),
		Delays:        sub.delays.State(),
		TopK:          sub.topk.State(),
		Done:          sub.done,
		DoneReason:    sub.doneReason,
		Quarantined:   sub.quarantined.Load(),
		QuarantineMsg: sub.quarantineMsg,
	}
	ss.Texts = make([]Post, 0, len(sub.texts))
	for _, p := range sub.texts {
		ss.Texts = append(ss.Texts, p)
	}
	sort.Slice(ss.Texts, func(i, j int) bool { return ss.Texts[i].ID < ss.Texts[j].ID })
	live := sub.pending[sub.head:]
	ss.Pending = make([]walPendingText, len(live))
	for i, pt := range live {
		ss.Pending[i] = walPendingText{ID: pt.id, Time: pt.time}
	}
	return ss, nil
}

// restoreSnapshot rebuilds the server from a snapshot payload. Runs
// before any traffic, on a freshly constructed Server.
func (s *Server) restoreSnapshot(payload []byte) error {
	var snap walSnap
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	s.lastTime = snap.LastTime
	s.started = snap.Started
	s.closed.Store(snap.Closed)
	// Config wins over the snapshot, as it does on a WAL-only recovery: the
	// snapshot contributes its remembered fingerprints (the newest
	// DupWindow of them) and counters, never its distance or window, and
	// cannot switch deduplication back on.
	if snap.Dedup != nil && s.dedup != nil {
		st := *snap.Dedup
		st.MaxDistance, st.Window = s.cfg.DupDistance, s.cfg.DupWindow
		s.dedup = simhash.RestoreDeduper(st)
	}
	s.ingested.Add(snap.Ingested)
	s.dropped.Add(snap.Dropped)
	s.shed.Add(snap.Shed)
	s.quarantines.Add(snap.Quarantines)
	s.gaps.Add(snap.Gaps)
	s.pushed.Add(snap.Pushed)
	s.routingSkipped.Add(snap.RoutingSkipped)
	s.idem.restore(snap.Idem)
	for i := range snap.Subs {
		if err := s.restoreSub(&snap.Subs[i]); err != nil {
			return fmt.Errorf("subscription %d: %w", snap.Subs[i].ID, err)
		}
	}
	s.mu.Lock()
	if snap.NextID > s.nextID {
		s.nextID = snap.NextID
	}
	n := len(s.subs)
	s.mu.Unlock()
	s.subCount.Store(int64(n))
	if o := s.obs; o != nil {
		o.subs.Set(float64(n))
	}
	return nil
}

// restoreSub rebuilds one subscription: matcher and routing symbols are
// recompiled from the config (symbol ids may differ from the dead
// process's — they are only routing keys), the processor and view resume
// from their captured state.
func (s *Server) restoreSub(ss *walSubSnap) error {
	matcher, err := match.NewMatcher(ss.Cfg.Topics)
	if err != nil {
		return err
	}
	routeSyms := matcher.CompileSymbols(s.symtab)
	proc, err := stream.RestoreProcessor(ss.Proc)
	if err != nil {
		return err
	}
	sub := &subscription{
		id:            ss.ID,
		cfg:           ss.Cfg,
		routeSyms:     routeSyms,
		matcher:       matcher,
		proc:          proc,
		emissions:     ss.Emissions,
		texts:         make(map[int64]Post, len(ss.Texts)),
		delays:        obs.RestoreHistogram(ss.Delays),
		topk:          stream.RestoreTopK(ss.TopK),
		done:          ss.Done,
		doneReason:    ss.DoneReason,
		quarantineMsg: ss.QuarantineMsg,
	}
	sub.quarantined.Store(ss.Quarantined)
	if ss.Quarantined {
		s.obs.onQuarantine(1)
	}
	sub.nextSeq.Add(ss.NextSeq)
	sub.matched.Add(ss.Matched)
	sub.textMisses.Add(ss.TextMisses)
	for _, p := range ss.Texts {
		sub.texts[p.ID] = p
	}
	sub.pending = make([]pendingText, len(ss.Pending))
	for i, pt := range ss.Pending {
		sub.pending[i] = pendingText{id: pt.ID, time: pt.Time}
	}
	s.mu.Lock()
	s.subs[sub.id] = sub
	s.order = insertOrdered(s.order, sub)
	if sub.id > s.nextID {
		s.nextID = sub.id
	}
	s.mu.Unlock()
	// A quarantined pipeline's postings were withdrawn live; keep it out
	// of the routing index so it stays isolated after the restart too.
	if !ss.Quarantined {
		s.routes.Add(sub.id, sub, routeSyms)
	}
	return nil
}

// insertOrdered adds sub to a copy of order, keeping it sorted by id.
func insertOrdered(order []*subscription, sub *subscription) []*subscription {
	i := sort.Search(len(order), func(k int) bool { return order[k].id >= sub.id })
	out := make([]*subscription, 0, len(order)+1)
	out = append(out, order[:i]...)
	out = append(out, sub)
	return append(out, order[i:]...)
}
