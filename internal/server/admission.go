package server

import (
	"context"
	"sync"
	"time"

	"mqdp/internal/resilience"
)

// ShedPolicy decides what an over-limit ingest request does while the
// admission controller's in-flight cap is saturated.
type ShedPolicy string

const (
	// ShedPolicyShed rejects immediately with 429 + Retry-After.
	ShedPolicyShed ShedPolicy = "shed"
	// ShedPolicyBlock queues the request (bounded by MaxWait and the
	// request context) and sheds only if no slot frees in time. The
	// queue is the semaphore's wait list — bounded by the listener's
	// connection backlog, never unbounded in-process buffering.
	ShedPolicyBlock ShedPolicy = "block"
)

// AdmissionConfig bounds the ingest path. The zero value disables
// admission control entirely.
type AdmissionConfig struct {
	// MaxInflight caps concurrent ingest requests; ≤ 0 means unlimited.
	MaxInflight int
	// Rate and Burst parameterize a token bucket charged one token per
	// ingest request; Rate ≤ 0 disables the bucket.
	Rate  float64
	Burst int
	// Policy is shed (default) or block.
	Policy ShedPolicy
	// MaxWait bounds how long a blocked request waits for an in-flight
	// slot (0 = 1s). The bucket always sheds: waiting for refill would
	// just move the queue inside the server.
	MaxWait time.Duration
}

// admission is the live controller built from an AdmissionConfig.
type admission struct {
	cfg      AdmissionConfig
	inflight *resilience.Inflight // nil when MaxInflight ≤ 0
	bucket   *resilience.TokenBucket
}

// newAdmission builds the controller for cfg; nil when cfg bounds nothing.
func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxInflight <= 0 && cfg.Rate <= 0 {
		return nil
	}
	a := &admission{cfg: cfg}
	if cfg.MaxInflight > 0 {
		a.inflight = resilience.NewInflight(cfg.MaxInflight)
	}
	if cfg.Rate > 0 {
		a.bucket = resilience.NewTokenBucket(cfg.Rate, cfg.Burst)
	}
	if a.cfg.Policy == "" {
		a.cfg.Policy = ShedPolicyShed
	}
	if a.cfg.MaxWait <= 0 {
		a.cfg.MaxWait = time.Second
	}
	return a
}

// admit runs one ingest request through the admission controller. On
// success it returns a release closure; on shed it returns ok=false and
// the Retry-After hint, and counts the shed. ctx bounds a blocked wait.
func (s *Server) admit(ctx context.Context) (release func(), retryAfter time.Duration, ok bool) {
	a := s.admission
	if a == nil {
		return func() {}, 0, true
	}
	if a.bucket != nil && !a.bucket.Allow(1) {
		s.shed.Inc()
		return nil, a.bucket.RetryAfter(), false
	}
	if a.inflight == nil {
		return func() {}, 0, true
	}
	if !a.inflight.TryAcquire() {
		if a.cfg.Policy != ShedPolicyBlock {
			s.shed.Inc()
			return nil, time.Second, false
		}
		waitCtx, cancel := context.WithTimeout(ctx, a.cfg.MaxWait)
		defer cancel()
		if err := a.inflight.Acquire(waitCtx); err != nil {
			s.shed.Inc()
			return nil, time.Second, false
		}
	}
	return a.inflight.Release, 0, true
}

// maxIdempotencyKeys bounds the replay cache (a var so tests can
// exercise eviction cheaply). At the default, a retrying client fleet
// can replay its last ~4k ingest responses.
var maxIdempotencyKeys = 4096

// idemEntry is one cached ingest outcome: the exact body and status the
// original request produced, replayed verbatim to same-key retries.
type idemEntry struct {
	res    IngestResult
	status int
}

// idemCache is a bounded FIFO map of Idempotency-Key → outcome. The
// exactly-once story for ingest: a client that never got the response
// retries with the same key and receives the recorded outcome instead
// of re-applying the batch. inflight holds the keys whose first request
// is still being applied, so a retry that overtakes its original waits
// for that outcome instead of applying the batch a second time.
type idemCache struct {
	mu       sync.Mutex
	entries  map[string]idemEntry
	order    []string // insertion order for FIFO eviction
	head     int
	inflight map[string]chan struct{} // closed by settle
}

func (c *idemCache) get(key string) (idemEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// claim is the atomic lookup-or-claim: it returns the recorded outcome of
// key (replay = true), or makes the caller the key's owner, who must call
// settle exactly once. While another request owns the key, claim waits
// for it to settle (then looks again) or for ctx to end.
func (c *idemCache) claim(ctx context.Context, key string) (e idemEntry, replay bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			return e, true, nil
		}
		owner, busy := c.inflight[key]
		if !busy {
			if c.inflight == nil {
				c.inflight = make(map[string]chan struct{})
			}
			c.inflight[key] = make(chan struct{})
			c.mu.Unlock()
			return idemEntry{}, false, nil
		}
		c.mu.Unlock()
		select {
		case <-owner:
		case <-ctx.Done():
			return idemEntry{}, false, ctx.Err()
		}
	}
}

// settle ends the owner's claim on key and wakes its waiters. A non-nil
// outcome is recorded first, so they replay it; nil means nothing was
// applied durably (the WAL refused the batch) and the next waiter takes
// the key over.
func (c *idemCache) settle(key string, outcome *idemEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if outcome != nil {
		c.putLocked(key, *outcome)
	}
	close(c.inflight[key])
	delete(c.inflight, key)
}

func (c *idemCache) put(key string, e idemEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, e)
}

func (c *idemCache) putLocked(key string, e idemEntry) {
	if c.entries == nil {
		c.entries = make(map[string]idemEntry)
	}
	if _, exists := c.entries[key]; !exists {
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	for len(c.entries) > maxIdempotencyKeys && c.head < len(c.order) {
		delete(c.entries, c.order[c.head])
		c.head++
	}
	if c.head > 64 && c.head*2 >= len(c.order) {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// IdemSnap is one persisted replay-cache entry. Part of the durability
// snapshot: a client retrying an ingest across a server crash still gets
// the recorded outcome (Idempotent-Replay: true) instead of a re-apply.
type IdemSnap struct {
	Key      string
	Accepted int
	Error    string
	Status   int
}

// export captures the cache in FIFO order, so a restore preserves the
// eviction sequence exactly.
func (c *idemCache) export() []IdemSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]IdemSnap, 0, len(c.entries))
	for _, key := range c.order[c.head:] {
		e, ok := c.entries[key]
		if !ok {
			continue // evicted but not yet compacted out of order
		}
		out = append(out, IdemSnap{Key: key, Accepted: e.res.Accepted, Error: e.res.Error, Status: e.status})
	}
	return out
}

// restore replays exported entries through put, rebuilding the FIFO
// bookkeeping (and honoring the current cache bound).
func (c *idemCache) restore(snaps []IdemSnap) {
	for _, sn := range snaps {
		c.put(sn.Key, idemEntry{res: IngestResult{Accepted: sn.Accepted, Error: sn.Error}, status: sn.Status})
	}
}
