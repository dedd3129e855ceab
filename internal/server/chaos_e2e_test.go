package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mqdp"
	"mqdp/internal/faultinject"
	"mqdp/internal/obs"
	"mqdp/internal/synth"
	"mqdp/internal/wal"
)

// chaosSubscribe registers the chaos fleet: six mixed-profile
// subscriptions drawn from the same world, identically on any server, so
// a fault-free and a fault-ridden run are comparable id-for-id.
func chaosSubscribe(t *testing.T, world *synth.World, sub func(SubscriptionConfig) (int64, error)) []int64 {
	t.Helper()
	algos := []string{"streamscan", "streamscan+", "streamgreedy", "streamgreedy+", "instant", "streamscan+"}
	rng := newRand(17)
	ids := make([]int64, 0, len(algos))
	for i, algo := range algos {
		id, err := sub(SubscriptionConfig{
			Topics:    world.MatchTopics(world.SampleLabelSet(rng, 2+i%3)),
			Lambda:    float64(60 * (1 + i%3)),
			Tau:       float64(30 * (i % 2)),
			Algorithm: algo,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestChaosE2E drives client → HTTP → server → stream processors through a
// scripted fault schedule (request drop, response drop, injected 503, added
// latency and one mid-stream processor panic) and
// asserts the fault-tolerance contract end to end:
//
//   - the retrying client reports every batch fully accepted, exactly once;
//   - the panicking subscription is quarantined — surfaced in its stats and
//     the service metrics — while the server keeps serving;
//   - every healthy subscription's emission sequence is byte-identical to a
//     fault-free run over the same stream;
//   - the client's retries (attempts the transport saw beyond one per
//     logical call) and the quarantine counters reconcile with the
//     injector's own record of what it injected (TestChaosForcedShed does
//     the same for the shed counters).
func TestChaosE2E(t *testing.T) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 21})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 2, DupRatio: 0, Seed: 22})

	// Fault-free reference run, straight into a server core.
	clean := newServer(t, Config{})
	cleanIDs := chaosSubscribe(t, world, clean.Subscribe)
	for _, tw := range tweets {
		if err := ingestPost(clean, Post{ID: tw.ID, Time: tw.Time, Text: tw.Text}); err != nil {
			t.Fatal(err)
		}
	}
	clean.Flush()

	// Chaos run: same stream, but over HTTP through a faulty transport,
	// with a scripted panic inside one subscription's pipeline.
	reg := obs.NewRegistry()
	srvInj, err := faultinject.ParseSchedule("sub3.process@5=panic:injected-chaos-panic", 7)
	if err != nil {
		t.Fatal(err)
	}
	ts, core := newTestServerWith(t, Config{Obs: reg, Faults: srvInj})

	clInj, err := faultinject.ParseSchedule(
		"POST /ingest@4=drop; POST /ingest@9=droprx; POST /ingest@15=status:503; POST /ingest@21=delay:20ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL)
	cl.HTTPClient = &http.Client{Transport: faultinject.NewTransport(nil, clInj), Timeout: 10 * time.Second}
	cl.Retry = &RetryPolicy{MaxAttempts: 6, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}

	ids := chaosSubscribe(t, world, func(cfg SubscriptionConfig) (int64, error) {
		return cl.Subscribe(context.Background(), cfg)
	})
	if fmt.Sprint(ids) != fmt.Sprint(cleanIDs) {
		t.Fatalf("subscription ids diverge: %v vs %v", ids, cleanIDs)
	}
	const batchSize = 20
	var ingestCalls int64
	for at := 0; at < len(tweets); at += batchSize {
		end := min(at+batchSize, len(tweets))
		batch := make([]Post, 0, end-at)
		for _, tw := range tweets[at:end] {
			batch = append(batch, Post{ID: tw.ID, Time: tw.Time, Text: tw.Text})
		}
		n, err := cl.Ingest(context.Background(), batch...)
		ingestCalls++
		if err != nil {
			t.Fatalf("batch at %d: %v", at, err)
		}
		if n != len(batch) {
			t.Fatalf("batch at %d: accepted %d of %d", at, n, len(batch))
		}
	}
	if err := cl.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly once: the server saw each post once despite the dropped
	// request, the dropped response, and the injected 503.
	if got, want := core.Stats().Ingested, clean.Stats().Ingested; got != want {
		t.Fatalf("chaos run ingested %d posts, fault-free run %d", got, want)
	}
	if got := core.Stats().Ingested; got != int64(len(tweets)) {
		t.Fatalf("ingested %d, stream has %d", got, len(tweets))
	}

	// The panicking subscription is quarantined; everyone else matches the
	// fault-free run byte for byte.
	const victim = 3
	st, err := core.SubscriptionStats(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined || !strings.Contains(st.QuarantineReason, "injected-chaos-panic") {
		t.Fatalf("victim subscription not quarantined as expected: %+v", st)
	}
	var healthy, cleanHealthy []int64
	for i, id := range ids {
		if id != victim {
			healthy = append(healthy, id)
			cleanHealthy = append(cleanHealthy, cleanIDs[i])
		}
	}
	a := subscriptionEmissionsJSON(t, clean, cleanHealthy)
	b := subscriptionEmissionsJSON(t, core, healthy)
	if string(a) != string(b) {
		t.Fatal("healthy subscriptions' emissions diverge from the fault-free run")
	}
	// The quarantined buffer stays pollable: whatever landed before the
	// panic is still served, without error.
	if _, err := core.Emissions(victim, 0, 0); err != nil {
		t.Fatalf("quarantined subscription not pollable: %v", err)
	}
	var h Health
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d after chaos", code)
	}

	last := tweets[len(tweets)-1]
	_, err = cl.Ingest(context.Background(), Post{ID: last.ID + 1, Time: last.Time + 1, Text: "post-flush probe"})
	ingestCalls++
	if StatusCode(err) != http.StatusConflict {
		t.Fatalf("ingest after flush: want 409, got %v", err)
	}

	// Reconcile every counter with what the injector says it did.
	retries := clInj.Calls("POST /ingest") - ingestCalls
	counts := clInj.Counts()
	for kind, want := range map[string]int64{"drop": 1, "droprx": 1, "status": 1, "delay": 1} {
		if counts[kind] != want {
			t.Errorf("transport injector %s count = %d, want %d", kind, counts[kind], want)
		}
	}
	if got := srvInj.Counts()["panic"]; got != 1 {
		t.Errorf("server injector panic count = %d, want 1", got)
	}
	if faultRetries := counts["drop"] + counts["droprx"] + counts["status"]; retries != faultRetries {
		t.Errorf("client retries = %d, want %d (one per injected fault)", retries, faultRetries)
	}
	m := core.Metrics()
	if m.Quarantines != 1 {
		t.Errorf("Metrics.Quarantines = %d, want 1", m.Quarantines)
	}
	if m.Sheds != 0 {
		t.Errorf("Metrics.Sheds = %d with no admission control configured", m.Sheds)
	}

	// The same story in the Prometheus exposition.
	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	for _, line := range []string{
		"mqdp_server_quarantines_total 1",
		"mqdp_server_quarantined_subscriptions 1",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("prometheus exposition missing %q", line)
		}
	}
}

// TestChaosForcedShed: a near-empty token bucket admits one request and
// sheds every attempt of the next, so the retrying client observes 429s
// and gives up; the attempts its transport sent, the server's shed
// counter and the Prometheus exposition all tell the same story.
func TestChaosForcedShed(t *testing.T) {
	reg := obs.NewRegistry()
	ts, core := newTestServerWith(t, Config{Obs: reg, Admission: AdmissionConfig{Rate: 2, Burst: 1}})
	clInj, err := faultinject.ParseSchedule("", 0) // counts attempts, injects nothing
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL)
	cl.HTTPClient = &http.Client{Transport: faultinject.NewTransport(nil, clInj), Timeout: 5 * time.Second}
	cl.Retry = &RetryPolicy{MaxAttempts: 6, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}
	if _, err := cl.Ingest(context.Background(), Post{ID: 1, Time: 1, Text: "takes the only token"}); err != nil {
		t.Fatalf("ingest with a full bucket: %v", err)
	}
	_, err = cl.Ingest(context.Background(), Post{ID: 2, Time: 2, Text: "shed on every attempt"})
	if StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("ingest with empty bucket: want 429, got %v", err)
	}
	// Every attempt after the first call's one was shed.
	shed := clInj.Calls("POST /ingest") - 1
	if shed < 2 {
		t.Errorf("client sent %d shed attempts, want the 429 retried", shed)
	}
	m := core.Metrics()
	if m.Sheds != shed {
		t.Errorf("Metrics.Sheds = %d, client saw %d 429s", m.Sheds, shed)
	}
	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if line := fmt.Sprintf("mqdp_server_sheds_total %d", shed); !strings.Contains(text, line) {
		t.Errorf("prometheus exposition missing %q", line)
	}
}

// TestChaosExactlyOnceReplay pins the idempotent-replay mechanism in
// isolation: a dropped response is retried with the same idempotency key
// and the server replays the recorded outcome instead of re-applying the
// batch.
func TestChaosExactlyOnceReplay(t *testing.T) {
	ts, core := newTestServer(t)
	id, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	clInj, err := faultinject.ParseSchedule("POST /ingest@1=droprx", 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL)
	cl.HTTPClient = &http.Client{Transport: faultinject.NewTransport(nil, clInj), Timeout: 5 * time.Second}
	cl.Retry = &RetryPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond}

	posts := []Post{
		{ID: 1, Time: 1, Text: "obama results tonight"},
		{ID: 2, Time: 2, Text: "senate debate recap"},
		{ID: 3, Time: 3, Text: "senate passes the budget"},
	}
	n, err := cl.Ingest(context.Background(), posts...)
	if err != nil || n != len(posts) {
		t.Fatalf("Ingest = (%d, %v), want (%d, nil)", n, err, len(posts))
	}
	// The first attempt was applied server-side even though its response
	// was dropped; the retry must have replayed, not re-ingested.
	if got := core.Stats().Ingested; got != int64(len(posts)) {
		t.Fatalf("server ingested %d posts, want %d (batch applied twice?)", got, len(posts))
	}
	if got := clInj.Calls("POST /ingest") - 1; got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	core.Flush()
	es, err := core.Emissions(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(posts) {
		t.Fatalf("emitted %d decisions, want %d", len(es), len(posts))
	}
}

// TestIdempotentConcurrentSameKey: a retry that overtakes its own original
// — same Idempotency-Key while the first attempt is still stalled inside
// the pipeline — waits for that attempt's outcome and replays it. It never
// applies the batch a second time (equal timestamps would double-ingest)
// and never overwrites the recorded outcome (increasing timestamps would
// record the retry's 409 out-of-order), in memory and through the WAL.
func TestIdempotentConcurrentSameKey(t *testing.T) {
	type answer struct {
		status int
		replay bool
		res    IngestResult
		err    error
	}
	for _, durable := range []bool{false, true} {
		for _, shape := range []struct {
			name   string
			t1, t2 float64
		}{{"equal timestamps", 5, 5}, {"increasing timestamps", 5, 6}} {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, shape.name), func(t *testing.T) {
				inj, err := faultinject.ParseSchedule("sub1.process@1=delay:300ms", 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Faults: inj}
				if durable {
					cfg.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncBatch}
				}
				ts, core := newTestServerWith(t, cfg)
				if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Algorithm: "instant"}); err != nil {
					t.Fatal(err)
				}
				posts := []Post{{ID: 1, Time: shape.t1, Text: "obama speaks"}, {ID: 2, Time: shape.t2, Text: "senate votes"}}
				body, err := json.Marshal(posts)
				if err != nil {
					t.Fatal(err)
				}
				const key = "same-key"
				send := func() (a answer) {
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
					if err != nil {
						return answer{err: err}
					}
					req.Header.Set("Idempotency-Key", key)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						return answer{err: err}
					}
					defer resp.Body.Close()
					a.status = resp.StatusCode
					a.replay = resp.Header.Get("Idempotent-Replay") == "true"
					a.err = json.NewDecoder(resp.Body).Decode(&a.res)
					return a
				}
				first := make(chan answer, 1)
				go func() { first <- send() }()
				// Post 1 is admitted, so the original is stalled in sub1.process.
				waitFor(t, func() bool { return core.Stats().Ingested >= 1 })
				second := send()
				replays := 0
				for i, a := range []answer{<-first, second, send()} {
					if a.err != nil {
						t.Fatalf("request %d: %v", i, a.err)
					}
					if a.status != http.StatusOK || a.res.Accepted != len(posts) || a.res.Error != "" {
						t.Errorf("request %d answered %d %+v, want 200 with %d accepted", i, a.status, a.res, len(posts))
					}
					if a.replay {
						replays++
					}
				}
				if replays != 2 {
					t.Errorf("%d of 3 same-key requests were marked Idempotent-Replay, want 2", replays)
				}
				if got := core.Stats().Ingested; got != int64(len(posts)) {
					t.Errorf("ingested %d posts, want %d (batch applied twice?)", got, len(posts))
				}
				if !durable {
					return
				}
				// Crash (no Close): the recovered server answers from the
				// journaled ack, which must be the original's.
				b := newServer(t, cfg)
				res, status, err := b.IngestBatch(context.Background(), posts, key)
				if err != nil || !res.Replayed || status != http.StatusOK || res.Accepted != len(posts) {
					t.Errorf("after recovery the key answers %d %+v (%v), want a replayed 200", status, res, err)
				}
				if got := b.Stats().Ingested; got != int64(len(posts)) {
					t.Errorf("recovered server ingested %d posts, want %d", got, len(posts))
				}
			})
		}
	}
}

// TestChaosIngestDeadline exercises the server-side ingest deadline: a
// batch stalled mid-way (injected processing latency beyond the budget) is
// cut between posts, the applied prefix is reported with 503 + Retry-After,
// and a retrying client resumes at the offset — exactly once overall.
func TestChaosIngestDeadline(t *testing.T) {
	posts := make([]Post, 6)
	for i := range posts {
		posts[i] = Post{ID: int64(i + 1), Time: float64(i + 1), Text: fmt.Sprintf("senate update %d", i+1)}
	}
	setup := func(t *testing.T) (*httptest.Server, *Server) {
		inj, err := faultinject.ParseSchedule("sub1.process@3=delay:120ms", 0)
		if err != nil {
			t.Fatal(err)
		}
		ts, core := newTestServerWith(t, Config{IngestDeadline: 40 * time.Millisecond, Faults: inj})
		if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"}); err != nil {
			t.Fatal(err)
		}
		return ts, core
	}

	t.Run("manual resume", func(t *testing.T) {
		ts, core := setup(t)
		cl := NewClient(ts.URL) // no retry policy: the caller sees the cut
		n, err := cl.Ingest(context.Background(), posts...)
		if n != 3 {
			t.Fatalf("accepted = %d, want 3 (deadline cuts after the stalled post)", n)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
			t.Fatalf("want 503 APIError, got %v", err)
		}
		if ra, ok := ae.RetryAfter(); !ok || ra != 0 {
			t.Fatalf("want Retry-After 0 on a deadline cut, got (%v, %v)", ra, ok)
		}
		// Resume at the accepted offset, per the documented contract.
		n, err = cl.Ingest(context.Background(), posts[3:]...)
		if err != nil || n != 3 {
			t.Fatalf("resume = (%d, %v), want (3, nil)", n, err)
		}
		if got := core.Stats().Ingested; got != int64(len(posts)) {
			t.Fatalf("ingested %d, want %d", got, len(posts))
		}
	})

	t.Run("automatic resume", func(t *testing.T) {
		ts, core := setup(t)
		clInj, err := faultinject.ParseSchedule("", 0) // counts attempts, injects nothing
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(ts.URL)
		cl.HTTPClient = &http.Client{Transport: faultinject.NewTransport(nil, clInj), Timeout: 5 * time.Second}
		cl.Retry = &RetryPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond}
		n, err := cl.Ingest(context.Background(), posts...)
		if err != nil || n != len(posts) {
			t.Fatalf("Ingest = (%d, %v), want (%d, nil)", n, err, len(posts))
		}
		if got := core.Stats().Ingested; got != int64(len(posts)) {
			t.Fatalf("ingested %d, want %d (prefix re-applied?)", got, len(posts))
		}
		if got := clInj.Calls("POST /ingest") - 1; got != 1 {
			t.Errorf("retries = %d, want 1", got)
		}
	})
}

// TestChaosAdmissionPolicies pins the two saturation behaviors: block
// queues a request until the in-flight slot frees; shed rejects it with
// 429 + Retry-After and counts the shed.
func TestChaosAdmissionPolicies(t *testing.T) {
	// setup serves one server per admission policy. Its first matched post
	// stalls 250ms inside the pipeline, holding its request's in-flight
	// slot; slow posts it and returns a channel closed when it is answered.
	setup := func(t *testing.T, adm AdmissionConfig) (core *Server, ingest func(Post) *http.Response, slow func() <-chan struct{}) {
		inj, err := faultinject.ParseSchedule("sub1.process@1=delay:250ms", 0)
		if err != nil {
			t.Fatal(err)
		}
		ts, core := newTestServerWith(t, Config{Admission: adm, Faults: inj})
		if _, err := core.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"}); err != nil {
			t.Fatal(err)
		}
		ingest = func(p Post) *http.Response {
			t.Helper()
			return postJSON(t, ts.URL+"/ingest", p)
		}
		slow = func() <-chan struct{} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp := ingest(Post{ID: 1, Time: 1, Text: "obama night special"})
				resp.Body.Close()
			}()
			time.Sleep(50 * time.Millisecond) // let the slow request take the slot
			return done
		}
		return core, ingest, slow
	}

	t.Run("block waits for the slot", func(t *testing.T) {
		core, ingest, slow := setup(t, AdmissionConfig{MaxInflight: 1, Policy: ShedPolicyBlock})
		done := slow()
		start := time.Now()
		resp := ingest(Post{ID: 2, Time: 2, Text: "senate campaign diary"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("blocked request status %d, want 200", resp.StatusCode)
		}
		if waited := time.Since(start); waited < 100*time.Millisecond {
			t.Errorf("blocked request returned after %v; expected to queue behind the slow one", waited)
		}
		<-done
		if m := core.Metrics(); m.Sheds != 0 {
			t.Errorf("block policy shed %d requests", m.Sheds)
		}
	})

	t.Run("shed rejects with retry-after", func(t *testing.T) {
		core, ingest, slow := setup(t, AdmissionConfig{MaxInflight: 1, Policy: ShedPolicyShed})
		done := slow()
		resp := ingest(Post{ID: 2, Time: 2, Text: "senate poll numbers move"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated shed status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without a Retry-After header")
		}
		<-done
		if m := core.Metrics(); m.Sheds != 1 {
			t.Errorf("Metrics.Sheds = %d, want 1", m.Sheds)
		}
	})
}

// panicFlushProc stands in for a processor whose Flush panics.
type panicFlushProc struct{}

func (panicFlushProc) Name() string                               { return "panic-flush" }
func (panicFlushProc) Process(mqdp.Post) ([]mqdp.Emission, error) { return nil, nil }
func (panicFlushProc) Flush() []mqdp.Emission                     { panic("flush-bomb") }

// TestChaosQuarantineOnFlush covers the flush-time quarantine path: a
// processor that panics while flushing is isolated, the other
// subscriptions flush normally, and the server survives.
func TestChaosQuarantineOnFlush(t *testing.T) {
	s := newServer(t, Config{})
	bad, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(s, Post{ID: 1, Time: 1, Text: "senate coverage begins"}); err != nil {
		t.Fatal(err)
	}
	sub, ok := s.lookup(bad)
	if !ok {
		t.Fatal("subscription vanished")
	}
	sub.mu.Lock()
	sub.proc = panicFlushProc{}
	sub.mu.Unlock()

	s.Flush() // must not crash
	st, err := s.SubscriptionStats(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined || !strings.Contains(st.QuarantineReason, "flush-bomb") {
		t.Fatalf("flush panic not quarantined: %+v", st)
	}
	es, err := s.Emissions(good, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("healthy subscription emitted %d, want 1", len(es))
	}
	if m := s.Metrics(); m.Quarantines != 1 {
		t.Errorf("Metrics.Quarantines = %d, want 1", m.Quarantines)
	}
}

// readAll drains an HTTP response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
