package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqdp/internal/faultinject"
	"mqdp/internal/match"
)

// --- gap reporting (the headline bugfix) ---

// TestPollGapReporting pins the no-silent-splice contract at the Server
// API: a cursor older than the retained buffer returns the kept tail
// TOGETHER with a *GapError naming the lost range, so a slow poller can
// tell "nothing new" from "you missed seqs 6..12".
func TestPollGapReporting(t *testing.T) {
	old := maxEmissionBuffer
	maxEmissionBuffer = 8
	defer func() { maxEmissionBuffer = old }()

	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := ingestPost(s, Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("obama update %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// 20 emissions, buffer retains 13..20.
	es, err := s.Emissions(id, 5, 0)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("stale cursor: err = %v, want *GapError", err)
	}
	if !errors.Is(err, ErrGap) {
		t.Errorf("gap error does not unwrap to ErrGap: %v", err)
	}
	if gap.GapFrom != 6 || gap.FirstSeq != 13 {
		t.Errorf("gap = [%d, %d), want [6, 13)", gap.GapFrom, gap.FirstSeq)
	}
	if len(es) != 8 || es[0].Seq != 13 || es[7].Seq != 20 {
		t.Fatalf("stale cursor must still return the retained tail, got %d emissions", len(es))
	}
	// Cursor exactly at the trim boundary: nothing was missed.
	if _, err := s.Emissions(id, 12, 0); err != nil {
		t.Errorf("after=12 (first retained - 1): err = %v, want nil", err)
	}
	// Cursor inside the window: plain poll.
	es, err = s.Emissions(id, 15, 0)
	if err != nil || len(es) != 5 || es[0].Seq != 16 {
		t.Errorf("after=15 → (%d emissions, %v), want 16..20", len(es), err)
	}
	// Gap plus limit: the gap is reported even when the tail is paged.
	es, err = s.Emissions(id, 0, 3)
	if !errors.As(err, &gap) || gap.GapFrom != 1 || gap.FirstSeq != 13 {
		t.Errorf("after=0 limit=3: err = %v, want gap [1, 13)", err)
	}
	if len(es) != 3 || es[0].Seq != 13 {
		t.Errorf("after=0 limit=3 tail = %d emissions from %v", len(es), es)
	}
}

// TestPollGapEmptyBuffer covers the all-gc'd case: every emission has
// been trimmed, so the poll has no tail to return — it must still report
// where the live stream resumes instead of answering a silent empty 200.
func TestPollGapEmptyBuffer(t *testing.T) {
	old := maxEmissionBuffer
	maxEmissionBuffer = 0
	defer func() { maxEmissionBuffer = old }()

	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ingestPost(s, Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("obama update %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	es, err := s.Emissions(id, 0, 0)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("empty-buffer stale cursor: err = %v, want *GapError", err)
	}
	if gap.GapFrom != 1 || gap.FirstSeq != 6 {
		t.Errorf("gap = [%d, %d), want [1, 6)", gap.GapFrom, gap.FirstSeq)
	}
	if len(es) != 0 {
		t.Errorf("empty buffer returned %d emissions", len(es))
	}
	// A caught-up cursor on the empty buffer is NOT a gap.
	if _, err := s.Emissions(id, 5, 0); err != nil {
		t.Errorf("caught-up cursor: err = %v, want nil", err)
	}
}

// --- hub wakeups and terminal states ---

// TestWaitEmissionsWakeAndDrain exercises the blocking poll: a parked
// waiter is woken by the next delivery, terminal states drain pending
// emissions before reporting the end, and each end reason is typed.
func TestWaitEmissionsWakeAndDrain(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}

	// Park a waiter, then ingest: it must wake with exactly that emission.
	type res struct {
		es  []Emission
		err error
	}
	got := make(chan res, 1)
	go func() {
		es, err := s.WaitEmissions(context.Background(), id, 0, 0)
		got <- res{es, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if err := ingestPost(s, Post{ID: 1, Time: 0, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || len(r.es) != 1 || r.es[0].Seq != 1 {
			t.Fatalf("woken waiter got (%v, %v), want seq 1", r.es, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after delivery")
	}

	// Flush terminates, but a cursor with pending data drains first …
	s.Flush()
	if es, err := s.WaitEmissions(context.Background(), id, 0, 0); err != nil || len(es) != 1 {
		t.Fatalf("post-flush drain got (%v, %v), want the buffered emission", es, err)
	}
	// … and only the caught-up cursor sees the typed end.
	_, err = s.WaitEmissions(context.Background(), id, 1, 0)
	var end *StreamEndError
	if !errors.As(err, &end) || end.Reason != EndReasonFlushed {
		t.Fatalf("caught-up wait after flush: err = %v, want StreamEndError(flushed)", err)
	}
	if !errors.Is(err, ErrStreamEnded) {
		t.Errorf("end error does not unwrap to ErrStreamEnded: %v", err)
	}
}

// TestUnsubscribeWakesBlockedWaiter pins the immediate-wakeup contract:
// a parked waiter must not sleep through its subscription's removal.
func TestUnsubscribeWakesBlockedWaiter(t *testing.T) {
	s := newServer(t, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics()})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, werr := s.WaitEmissions(context.Background(), id, 0, 0)
		got <- werr
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	select {
	case werr := <-got:
		var end *StreamEndError
		if !errors.As(werr, &end) || end.Reason != EndReasonUnsubscribed {
			t.Fatalf("woken waiter err = %v, want StreamEndError(unsubscribed)", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unsubscribe left the waiter parked")
	}
}

// TestLongPollHTTP drives the wait= form over HTTP: a blocked long-poll
// completes as soon as an emission lands, and an unsubscribe mid-wait
// answers 409 with the X-Stream-End reason instead of hanging.
func TestLongPollHTTP(t *testing.T) {
	ts, core := newTestServer(t)
	resp := postJSON(t, ts.URL+"/subscriptions", SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	var created map[string]int64
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	id := created["id"]

	type pollRes struct {
		status  int
		endHdr  string
		es      []Emission
		elapsed time.Duration
	}
	longPoll := func(after int64) chan pollRes {
		ch := make(chan pollRes, 1)
		go func() {
			start := time.Now()
			r, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=%d&wait=10s", ts.URL, id, after))
			if err != nil {
				t.Error(err)
				ch <- pollRes{}
				return
			}
			defer r.Body.Close()
			var es []Emission
			_ = json.NewDecoder(r.Body).Decode(&es)
			ch <- pollRes{r.StatusCode, r.Header.Get("X-Stream-End"), es, time.Since(start)}
		}()
		return ch
	}

	first := longPoll(0)
	time.Sleep(30 * time.Millisecond)
	resp = postJSON(t, ts.URL+"/ingest", Post{ID: 1, Time: 0, Text: "obama live"})
	resp.Body.Close()
	select {
	case r := <-first:
		if r.status != http.StatusOK || len(r.es) != 1 {
			t.Fatalf("long-poll got status %d, %d emissions", r.status, len(r.es))
		}
		if r.elapsed > 5*time.Second {
			t.Fatalf("long-poll took %v, should have woken on delivery", r.elapsed)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("long-poll never completed after ingest")
	}

	second := longPoll(1)
	time.Sleep(30 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/subscriptions/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	select {
	case r := <-second:
		if r.status != http.StatusConflict || r.endHdr != EndReasonUnsubscribed {
			t.Fatalf("unsubscribed long-poll got status %d, X-Stream-End %q; want 409/unsubscribed", r.status, r.endHdr)
		}
		if r.elapsed > 5*time.Second {
			t.Fatalf("unsubscribe left the long-poll blocked for %v", r.elapsed)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("unsubscribe never woke the long-poll")
	}
	_ = core
}

// TestFlushWakesIdleStream is the shutdown-mid-stream case: an SSE
// client parked on an idle subscription must receive the terminal end
// event the moment the server flushes, not when a timeout fires.
func TestFlushWakesIdleStream(t *testing.T) {
	ts, core := newTestServer(t)
	cl := NewClient(ts.URL)
	id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics()})
	if err != nil {
		t.Fatal(err)
	}
	var end atomic.Pointer[StreamEndError]
	done := make(chan error, 1)
	go func() {
		done <- cl.Stream(context.Background(), id, 0, func(ev StreamEvent) error {
			if ev.End != nil {
				end.Store(ev.End)
			}
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // stream parks idle
	start := time.Now()
	core.Flush()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream returned %v, want nil after end event", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush left the idle stream parked")
	}
	if e := end.Load(); e == nil || e.Reason != EndReasonFlushed {
		t.Fatalf("end event = %+v, want reason flushed", end.Load())
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("end event took %v after flush", time.Since(start))
	}
}

// TestStreamQuarantineEndsStream pins satellite 3: a live SSE stream on
// a subscription whose pipeline panics receives the explicit quarantined
// terminal event rather than going silent.
func TestStreamQuarantineEndsStream(t *testing.T) {
	inj, err := faultinject.ParseSchedule("sub1.process@2=panic:boom", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts, core := newTestServerWith(t, Config{Faults: inj})
	cl := NewClient(ts.URL)
	id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	var seqs []int64
	done := make(chan error, 1)
	go func() {
		done <- cl.Stream(context.Background(), id, 0, func(ev StreamEvent) error {
			switch {
			case ev.Emission != nil:
				seqs = append(seqs, ev.Emission.Seq)
			case ev.End != nil:
				reasons = append(reasons, ev.End.Reason)
			}
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond)
	// Match #1 emits; match #2 panics the pipeline and quarantines.
	for i := 0; i < 3; i++ {
		if err := ingestPost(core, Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("obama %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream returned %v, want nil after quarantine end", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quarantine never terminated the live stream")
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("pre-quarantine emissions = %v, want [1]", seqs)
	}
	if len(reasons) != 1 || reasons[0] != EndReasonQuarantined {
		t.Errorf("end reasons = %v, want [quarantined]", reasons)
	}
}

// --- push/poll equivalence ---

// streamCapture collects one client's view of a subscription: which seqs
// arrived, which ranges were reported lost, each emission's exact bytes,
// and the terminal reasons seen.
type streamCapture struct {
	seqs    []int64
	lost    [][2]int64 // inclusive [from, to] ranges reported as gaps
	bySeq   map[int64]string
	reasons []string
	topks   int
}

func newStreamCapture() *streamCapture {
	return &streamCapture{bySeq: map[int64]string{}}
}

func (c *streamCapture) emission(t *testing.T, e *Emission) {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	c.seqs = append(c.seqs, e.Seq)
	c.bySeq[e.Seq] = string(b)
}

func (c *streamCapture) gap(g *GapError) {
	c.lost = append(c.lost, [2]int64{g.GapFrom, g.FirstSeq - 1})
}

// verifyPartition asserts that received seqs plus reported-lost ranges
// exactly cover 1..total with no overlap — the "nothing silently lost,
// nothing duplicated" property.
func (c *streamCapture) verifyPartition(t *testing.T, total int64) {
	t.Helper()
	covered := make(map[int64]string, total)
	for _, s := range c.seqs {
		if covered[s] != "" {
			t.Fatalf("seq %d delivered twice (first as %s)", s, covered[s])
		}
		covered[s] = "delivered"
	}
	for _, r := range c.lost {
		for s := r[0]; s <= r[1]; s++ {
			if covered[s] == "delivered" {
				t.Fatalf("seq %d both delivered and reported lost", s)
			}
			// Overlapping gap reports are fine (a reconnect may re-announce
			// a wider gap); double-counting only matters against delivery.
			covered[s] = "lost"
		}
	}
	for s := int64(1); s <= total; s++ {
		if covered[s] == "" {
			t.Fatalf("seq %d neither delivered nor reported lost (silent gap!)", s)
		}
	}
	for i := 1; i < len(c.seqs); i++ {
		if c.seqs[i] <= c.seqs[i-1] {
			t.Fatalf("delivery out of order: %d after %d", c.seqs[i], c.seqs[i-1])
		}
	}
}

// TestPushPollDeterminism is the property test: for any worker count and
// any gc horizon, the pushed emission sequence and the poll-with-resume
// sequence are byte-identical where delivered, every undelivered seq is
// explicitly reported as a gap, and all runs agree with the workers=1
// reference per seq. The worker count is GOMAXPROCS, so the ingest, the
// push stream and the polls interleave differently on each run.
func TestPushPollDeterminism(t *testing.T) {
	texts := []string{
		"obama meets the senate", "senate floor vote tonight", "obama presser at noon",
		"weather is nice today", "congress recess begins", "president obama speech",
		"lunch was fine", "senate committee hearing",
	}
	const nPosts = 160
	posts := make([]Post, nPosts)
	for i := range posts {
		posts[i] = Post{ID: int64(i + 1), Time: float64(i) * 0.7, Text: fmt.Sprintf("%s %d", texts[i%len(texts)], i)}
	}

	var refBySeq map[int64]string
	var refTotal int64
	for _, cfg := range []struct{ workers, buffer int }{
		{1, 1 << 16}, {2, 1 << 16}, {4, 1 << 16}, {1, 8}, {4, 8},
	} {
		name := fmt.Sprintf("workers=%d,buffer=%d", cfg.workers, cfg.buffer)
		t.Run(name, func(t *testing.T) {
			oldBuf := maxEmissionBuffer
			maxEmissionBuffer = cfg.buffer
			defer func() { maxEmissionBuffer = oldBuf }()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers))

			core := newServer(t, Config{})
			ts := httptest.NewServer(Handler(core))
			defer ts.Close()
			cl := NewClient(ts.URL)
			cl.Retry = &RetryPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffCap: 8 * time.Millisecond}
			id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Lambda: 20, Tau: 5})
			if err != nil {
				t.Fatal(err)
			}

			// Push: a live stream racing the ingest.
			push := newStreamCapture()
			streamDone := make(chan error, 1)
			go func() {
				streamDone <- cl.Stream(context.Background(), id, 0, func(ev StreamEvent) error {
					switch {
					case ev.Emission != nil:
						push.emission(t, ev.Emission)
					case ev.Gap != nil:
						push.gap(ev.Gap)
					case ev.TopK != nil:
						push.topks++
					case ev.End != nil:
						push.reasons = append(push.reasons, ev.End.Reason)
					}
					return nil
				})
			}()
			for _, p := range posts {
				if err := ingestPost(core, p); err != nil {
					t.Fatal(err)
				}
			}
			core.Flush()
			if err := <-streamDone; err != nil {
				t.Fatalf("stream: %v", err)
			}

			st, err := cl.SubscriptionStats(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			total := st.Emitted
			if total == 0 {
				t.Fatal("workload produced no emissions")
			}

			// Poll with resume, after the fact, in small pages.
			poll := newStreamCapture()
			after := int64(0)
			for {
				es, err := cl.Emissions(context.Background(), id, after, 7)
				var gap *GapError
				if errors.As(err, &gap) {
					poll.gap(gap)
					after = gap.FirstSeq - 1
					err = nil
				}
				if err != nil {
					t.Fatalf("poll resume: %v", err)
				}
				if len(es) == 0 {
					break
				}
				for i := range es {
					poll.emission(t, &es[i])
					after = es[i].Seq
				}
			}

			push.verifyPartition(t, total)
			poll.verifyPartition(t, total)
			if len(push.reasons) != 1 || push.reasons[0] != EndReasonFlushed {
				t.Errorf("push end reasons = %v, want [flushed]", push.reasons)
			}
			if push.topks == 0 {
				t.Error("push stream never delivered a top-k view")
			}
			// Where both saw a seq, the bytes must agree.
			for seq, pb := range push.bySeq {
				if qb, ok := poll.bySeq[seq]; ok && qb != pb {
					t.Fatalf("seq %d differs between push and poll:\n  push %s\n  poll %s", seq, pb, qb)
				}
			}
			if cfg.buffer > nPosts {
				// Nothing can be trimmed: both views must be complete.
				if len(push.lost)+len(poll.lost) != 0 {
					t.Fatalf("gap reported with an untrimmable buffer: push %v poll %v", push.lost, poll.lost)
				}
				if int64(len(poll.bySeq)) != total || int64(len(push.bySeq)) != total {
					t.Fatalf("incomplete delivery with untrimmable buffer: push %d poll %d of %d",
						len(push.bySeq), len(poll.bySeq), total)
				}
			}
			// Cross-run determinism: every delivered seq matches the
			// workers=1 big-buffer reference byte for byte.
			if refBySeq == nil {
				refBySeq, refTotal = poll.bySeq, total
				return
			}
			if total != refTotal {
				t.Fatalf("emitted %d, reference emitted %d", total, refTotal)
			}
			for _, cap := range []*streamCapture{push, poll} {
				for seq, b := range cap.bySeq {
					if rb := refBySeq[seq]; rb != b {
						t.Fatalf("seq %d drifts from reference:\n  got  %s\n  want %s", seq, b, rb)
					}
				}
			}
		})
	}
}

// TestStreamRefusedIsAPIError: a server that refuses the push surface
// (501, or 405 from a proxy) fails Stream with the typed error, even with a
// retry policy, instead of being retried or papered over.
func TestStreamRefusedIsAPIError(t *testing.T) {
	core := newServer(t, Config{})
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	for _, status := range []int{http.StatusNotImplemented, http.StatusMethodNotAllowed} {
		h := Handler(core)
		var streams atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stream") {
				streams.Add(1)
				http.Error(w, "no push here", status)
				return
			}
			h.ServeHTTP(w, r)
		}))
		cl := NewClient(ts.URL)
		cl.Retry = &RetryPolicy{BackoffBase: time.Millisecond}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := cl.Stream(ctx, id, 0, func(StreamEvent) error {
			t.Error("refused stream delivered an event")
			return nil
		})
		cancel()
		ts.Close()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != status {
			t.Errorf("Stream against a %d server = %v, want *APIError %d", status, err, status)
		}
		if got := streams.Load(); got != 1 {
			t.Errorf("Stream sent %d requests to a %d server, want 1 (no retry)", got, status)
		}
	}
}

// TestStreamNegativeLastEventID: a negative Last-Event-ID is ignored like
// a malformed one, so the stream resumes at ?after= instead of announcing
// a gap that never existed.
func TestStreamNegativeLastEventID(t *testing.T) {
	ts, core := newTestServer(t)
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // seqs 1 and 2
		if err := ingestPost(core, Post{ID: int64(i + 1), Time: float64(i), Text: "obama speaks"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, last := range []string{"-5", "garbage"} {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/subscriptions/%d/stream?after=1", ts.URL, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", last)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := bufio.NewReader(resp.Body).ReadString('\n')
		resp.Body.Close()
		if first != "id: 2\n" {
			t.Errorf("Last-Event-ID %q: stream opened with %q, want the seq-2 emission", last, first)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- concurrency hammer ---

// TestStreamChurnHammer runs concurrent subscribe/stream/long-poll/
// unsubscribe churn against a live ingest feed. It asserts nothing about
// delivery contents (the determinism test does) — its job is to drive
// the hub's lock/wakeup paths under -race.
func TestStreamChurnHammer(t *testing.T) {
	core := newServer(t, Config{})
	ts := httptest.NewServer(Handler(core))
	defer ts.Close()
	cl := NewClient(ts.URL)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One ingester keeps time strictly increasing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := 0.0
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now += 0.5
			_ = ingestPost(core, Post{ID: int64(i), Time: now, Text: fmt.Sprintf("obama senate %d", i)})
		}
	}()

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
				if err != nil {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				switch g % 3 {
				case 0:
					_ = cl.Stream(ctx, id, 0, func(StreamEvent) error { return nil })
				case 1:
					_, _ = core.WaitEmissions(ctx, id, 0, 0)
				case 2:
					_, _ = cl.TopK(ctx, id)
					_, _ = cl.Emissions(ctx, id, 0, 0)
				}
				cancel()
				_ = cl.Unsubscribe(context.Background(), id)
			}
		}(g)
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	core.Flush()
	// A cancelled client returns before the server's handler has run its
	// deferred stream decrement: wait for every handler to finish, then the
	// gauge must read exactly zero.
	waitFor(t, func() bool { return core.ActiveStreams() == 0 })
}

// --- soak: idle streams must be free ---

// TestPushSoak holds many idle SSE streams plus a few hot ones through
// sustained ingest and checks the resource envelope stays flat: goroutine
// count bounded by one per stream, and the active-stream gauge returns to
// zero once the clients disconnect. Run directly via `make push-soak`.
func TestPushSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	core := newServer(t, Config{})
	ts := httptest.NewServer(Handler(core))
	defer ts.Close()
	cl := NewClient(ts.URL)

	// 8 subscriptions; idle streams watch topics the feed never matches.
	idleID, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: quietTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	hotID, err := cl.Subscribe(context.Background(), SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}

	const idleStreams, hotStreams = 48, 4
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var delivered atomic.Int64
	stream := func(id int64) {
		defer wg.Done()
		_ = cl.Stream(ctx, id, 0, func(ev StreamEvent) error {
			if ev.Emission != nil {
				delivered.Add(1)
			}
			return nil
		})
	}
	for i := 0; i < idleStreams; i++ {
		wg.Add(1)
		go stream(idleID)
	}
	for i := 0; i < hotStreams; i++ {
		wg.Add(1)
		go stream(hotID)
	}
	waitFor(t, func() bool { return core.ActiveStreams() == idleStreams+hotStreams })
	baseline := runtime.NumGoroutine()

	// Sustained ingest: the hot streams see every emission, the idle
	// streams see none and must cost nothing.
	for i := 0; i < 2000; i++ {
		if err := ingestPost(core, Post{ID: int64(i + 1), Time: float64(i) * 0.1, Text: fmt.Sprintf("obama burst %d", i)}); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if g := runtime.NumGoroutine(); g > baseline+32 {
				t.Fatalf("goroutines grew under load: %d → %d", baseline, g)
			}
		}
	}
	waitFor(t, func() bool { return delivered.Load() >= hotStreams }) // hot streams are live
	if g := runtime.NumGoroutine(); g > baseline+32 {
		t.Fatalf("goroutines grew after load: %d → %d", baseline, g)
	}

	cancel()
	wg.Wait()
	waitFor(t, func() bool { return core.ActiveStreams() == 0 })
	core.Flush()
}

// quietTopics match nothing the soak feed produces.
func quietTopics() []match.Topic {
	return []match.Topic{{Name: "cricket", Keywords: []match.Keyword{{Text: "wicket", Weight: 1}}}}
}
