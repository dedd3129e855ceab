package server

import "context"

// Push delivery. Each subscription carries a tiny broadcast hub: a single
// channel that change sources (deliver, top-k slides, quarantine, flush,
// unsubscribe) close under sub.mu and waiters park on. Idle subscribers
// therefore cost one parked goroutine and zero CPU — no busy polling — and
// a wake is one channel close regardless of waiter count. The channel is
// lazily (re)created by the next waiter, so subscriptions nobody streams
// never allocate one.

// notifyLocked wakes every parked waiter. Caller holds sub.mu.
func (sub *subscription) notifyLocked() {
	if sub.wait != nil {
		close(sub.wait)
		sub.wait = nil
	}
}

// waitChLocked returns the channel the next change will close. Caller
// holds sub.mu and must re-check state after waking: a close means "look
// again", not "data for you".
func (sub *subscription) waitChLocked() chan struct{} {
	if sub.wait == nil {
		sub.wait = make(chan struct{})
	}
	return sub.wait
}

// terminateLocked latches the subscription's terminal state (first reason
// wins) and wakes every waiter. Caller holds sub.mu.
func (sub *subscription) terminateLocked(reason string) {
	if sub.done {
		return
	}
	sub.done = true
	sub.doneReason = reason
	sub.notifyLocked()
}

// WaitEmissions is Emissions that blocks while there is nothing new: the
// caller parks on the subscription's hub until an emission with Seq >
// after lands (returned like Emissions), the cursor turns out to be stale
// (retained tail plus *GapError), the subscription terminates
// (*StreamEndError: flushed, unsubscribed or quarantined — pending
// emissions are always drained first), or ctx ends (ctx.Err()).
func (s *Server) WaitEmissions(ctx context.Context, id, after int64, limit int) ([]Emission, error) {
	sub, ok := s.lookup(id)
	if !ok {
		return nil, ErrNoSuchSubscription
	}
	for {
		sub.mu.Lock()
		tail, _, gap := sub.pollLocked(after, limit)
		if len(tail) > 0 || gap != nil {
			sub.mu.Unlock()
			if gap != nil {
				return tail, gap
			}
			return tail, nil
		}
		if sub.done {
			reason := sub.doneReason
			sub.mu.Unlock()
			return nil, &StreamEndError{Reason: reason}
		}
		ch := sub.waitChLocked()
		sub.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TopKSnapshot is the continuously maintained diversified top-k view of
// one subscription: the visible items in rank order (coverage desc, value
// desc, seq asc) plus the view's change version, which bumps exactly when
// the visible items change.
type TopKSnapshot struct {
	Version uint64     `json:"version"`
	K       int        `json:"k"`
	Items   []Emission `json:"items"`
}

// TopK returns the subscription's current diversified top-k view.
func (s *Server) TopK(id int64) (TopKSnapshot, error) {
	sub, ok := s.lookup(id)
	if !ok {
		return TopKSnapshot{}, ErrNoSuchSubscription
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.topkSnapshotLocked(), nil
}

// topkSnapshotLocked copies the visible view. Caller holds sub.mu.
func (sub *subscription) topkSnapshotLocked() TopKSnapshot {
	items := sub.topk.Items()
	snap := TopKSnapshot{
		Version: sub.topk.Version(),
		K:       sub.topk.K(),
		Items:   make([]Emission, len(items)),
	}
	for i, it := range items {
		snap.Items[i] = it.Payload
	}
	return snap
}

// ActiveStreams reports the currently served push waiters.
func (s *Server) ActiveStreams() int64 { return s.streams.Load() }

// addStreams moves the push-waiter count by delta (+1 when an SSE stream
// or long-poll parks, -1 when it leaves) and republishes the gauge.
func (s *Server) addStreams(delta int64) {
	s.streams.Add(delta)
	if o := s.obs; o != nil {
		o.activeStreams.Set(float64(s.streams.Load()))
	}
}
