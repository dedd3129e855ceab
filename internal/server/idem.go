package server

import (
	"context"
	"sync"
)

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
