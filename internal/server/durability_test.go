package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mqdp/internal/faultinject"
	"mqdp/internal/obs"
	"mqdp/internal/wal"
)

// durPosts generates a deterministic workload mixing matching and
// non-matching posts (politicsTopics keywords plus noise) with strictly
// nondecreasing times and occasional exact near-duplicates for the
// deduper.
func durPosts(n int) []Post {
	rng := rand.New(rand.NewSource(42))
	words := []string{"obama", "president", "senate", "congress", "lunch", "game", "rain", "bill", "votes", "speech"}
	posts := make([]Post, n)
	tm := 0.0
	for i := range posts {
		tm += rng.Float64() * 20
		var b strings.Builder
		for w := 0; w < 3+rng.Intn(5); w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		posts[i] = Post{ID: int64(i + 1), Time: tm, Text: b.String()}
	}
	return posts
}

func durConfigs() []SubscriptionConfig {
	return []SubscriptionConfig{
		{Topics: politicsTopics(), Lambda: 40, Tau: 15, Algorithm: "streamscan+"},
		{Topics: politicsTopics(), Lambda: 25, Tau: 10, Algorithm: "streamgreedy"},
		{Topics: politicsTopics(), Lambda: 10, Algorithm: "instant"},
	}
}

// durConfig is a durable server on dir (SyncBatch, no snapshot timer).
func durConfig(dir string) Config {
	return Config{
		DupDistance: 3, DupWindow: 64,
		Durability: DurabilityConfig{Dir: dir, Fsync: wal.SyncBatch},
	}
}

// durOpen builds (or recovers) the durConfig server on dir.
func durOpen(t *testing.T, dir string) *Server {
	t.Helper()
	return newServer(t, durConfig(dir))
}

// runReference drives the whole workload on an in-memory server and
// returns its per-subscription emissions — the ground truth a crashed-
// and-recovered server must reproduce byte for byte.
func runReference(t *testing.T, posts []Post, flush bool) (map[int64][]Emission, *Server) {
	t.Helper()
	ref := newServer(t, Config{DupDistance: 3, DupWindow: 64})
	ids := make([]int64, 0, len(durConfigs()))
	for _, cfg := range durConfigs() {
		id, err := ref.Subscribe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, p := range posts {
		if err := ingestPost(ref, p); err != nil {
			t.Fatal(err)
		}
	}
	if flush {
		ref.Flush()
	}
	out := make(map[int64][]Emission)
	for _, id := range ids {
		es, err := ref.Emissions(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = es
	}
	return out, ref
}

func compareEmissions(t *testing.T, got *Server, want map[int64][]Emission) {
	t.Helper()
	for id, ref := range want {
		es, err := got.Emissions(id, 0, 0)
		if err != nil {
			t.Fatalf("sub %d: %v", id, err)
		}
		if !reflect.DeepEqual(es, ref) {
			t.Fatalf("sub %d: emissions diverged after recovery:\n got %d: %+v\nwant %d: %+v",
				id, len(es), es, len(ref), ref)
		}
	}
}

// TestDurabilityCrashReplayNoSnapshot kills the server (abandons it
// without any snapshot or clean close) mid-stream: the restart must
// rebuild everything from the WAL alone and the spliced stream must be
// byte-identical to an uninterrupted run.
func TestDurabilityCrashReplayNoSnapshot(t *testing.T) {
	posts := durPosts(120)
	want, ref := runReference(t, posts, true)

	dir := t.TempDir()
	a := durOpen(t, dir)
	for _, cfg := range durConfigs() {
		if _, err := a.Subscribe(cfg); err != nil {
			t.Fatal(err)
		}
	}
	cut := 70
	for i := 0; i < cut; i += 7 {
		end := i + 7
		if end > cut {
			end = cut
		}
		if _, _, err := a.IngestBatch(context.Background(), posts[i:end], fmt.Sprintf("batch-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no snapshot. SyncBatch committed every
	// batch, so the log content is what a kill -9 would leave behind.

	b := durOpen(t, dir)
	m := b.Metrics()
	if m.Durability == nil || m.Durability.ReplayedRecords == 0 {
		t.Fatalf("expected replayed records, got %+v", m.Durability)
	}
	if m.Durability.ReplayedPosts != int64(cut) {
		t.Fatalf("replayed %d posts, want %d", m.Durability.ReplayedPosts, cut)
	}
	if m.Subscriptions != len(durConfigs()) {
		t.Fatalf("recovered %d subscriptions, want %d", m.Subscriptions, len(durConfigs()))
	}
	for _, p := range posts[cut:] {
		if err := ingestPost(b, p); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	compareEmissions(t, b, want)
	// Per-subscription views and stats also line up with the reference.
	for id := range want {
		gs, _ := b.SubscriptionStats(id)
		rs, _ := ref.SubscriptionStats(id)
		if !reflect.DeepEqual(gs, rs) {
			t.Fatalf("sub %d stats diverged:\n got %+v\nwant %+v", id, gs, rs)
		}
		gt, _ := b.TopK(id)
		rt, _ := ref.TopK(id)
		if !reflect.DeepEqual(gt.Items, rt.Items) || gt.K != rt.K {
			t.Fatalf("sub %d topk diverged:\n got %+v\nwant %+v", id, gt, rt)
		}
	}
	if ing, ref := b.Stats().Ingested, ref.Stats().Ingested; ing != ref {
		t.Fatalf("ingested %d, want %d (batch applied twice?)", ing, ref)
	}
}

// TestDurabilitySnapshotRestore snapshots mid-stream: recovery must load
// the snapshot and replay only the WAL suffix, with identical emissions.
func TestDurabilitySnapshotRestore(t *testing.T) {
	posts := durPosts(120)
	want, _ := runReference(t, posts, true)

	dir := t.TempDir()
	a := durOpen(t, dir)
	for _, cfg := range durConfigs() {
		if _, err := a.Subscribe(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range posts[:60] {
		if err := ingestPost(a, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, p := range posts[60:90] {
		if err := ingestPost(a, p); err != nil {
			t.Fatal(err)
		}
	}
	// Crash after the snapshot plus 30 more journaled posts.

	b := durOpen(t, dir)
	m := b.Metrics()
	if m.Durability.SnapshotLSN == 0 {
		t.Fatal("restart did not load the snapshot")
	}
	if m.Durability.ReplayedPosts != 30 {
		t.Fatalf("replayed %d posts, want 30 (snapshot should cover the first 60)", m.Durability.ReplayedPosts)
	}
	for _, p := range posts[90:] {
		if err := ingestPost(b, p); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	compareEmissions(t, b, want)
}

// TestDurabilityGracefulRestartZeroReplay: Close snapshots, so
// the next start replays nothing.
func TestDurabilityGracefulRestartZeroReplay(t *testing.T) {
	posts := durPosts(50)
	dir := t.TempDir()
	a := durOpen(t, dir)
	id, err := a.Subscribe(durConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		if err := ingestPost(a, p); err != nil {
			t.Fatal(err)
		}
	}
	before, err := a.Emissions(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := durOpen(t, dir)
	m := b.Metrics()
	if m.Durability.ReplayedRecords != 0 {
		t.Fatalf("graceful restart replayed %d records, want 0", m.Durability.ReplayedRecords)
	}
	after, err := b.Emissions(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatal("emissions diverged across graceful restart")
	}
}

// TestDurabilityIdempotencyAcrossRestart (satellite): a client retrying
// an ingest across a crash still gets the recorded outcome with
// Idempotent-Replay: true — the batch is never applied twice.
func TestDurabilityIdempotencyAcrossRestart(t *testing.T) {
	posts := durPosts(20)
	dir := t.TempDir()
	a := durOpen(t, dir)
	if _, err := a.Subscribe(durConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(a))
	body := `[{"id":1,"time":1,"text":"obama speaks"},{"id":2,"time":2,"text":"senate votes"}]`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "crash-key-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: status %d", resp.StatusCode)
	}
	ingested := a.Stats().Ingested
	ts.Close()
	// Crash (no snapshot, no close) and restart.
	_ = posts

	b := durOpen(t, dir)
	if got := b.Stats().Ingested; got != ingested {
		t.Fatalf("recovered ingested %d, want %d", got, ingested)
	}
	ts2 := httptest.NewServer(Handler(b))
	defer ts2.Close()
	req2, _ := http.NewRequest(http.MethodPost, ts2.URL+"/ingest", strings.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Idempotency-Key", "crash-key-1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed ingest: status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("retry across restart was not served from the replay cache")
	}
	if got := b.Stats().Ingested; got != ingested {
		t.Fatalf("retry re-applied the batch: ingested %d, want %d", got, ingested)
	}
}

// TestDurabilityTerminalLatchesAcrossRestart (satellite): flushed and
// quarantined latches survive a crash, so clients get the same 409 /
// X-Stream-End answers from the restarted process.
func TestDurabilityTerminalLatchesAcrossRestart(t *testing.T) {
	t.Run("flushed", func(t *testing.T) {
		dir := t.TempDir()
		a := durOpen(t, dir)
		if _, err := a.Subscribe(durConfigs()[0]); err != nil {
			t.Fatal(err)
		}
		if err := ingestPost(a, Post{ID: 1, Time: 1, Text: "obama speaks"}); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		// Crash after the flush latch was journaled.

		b := durOpen(t, dir)
		if h := b.Health(); h.Status != "flushed" {
			t.Fatalf("health %q, want flushed", h.Status)
		}
		if err := ingestPost(b, Post{ID: 2, Time: 2, Text: "senate votes"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("ingest after recovered flush: %v, want ErrClosed", err)
		}
		ts := httptest.NewServer(Handler(b))
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"id":3,"time":3,"text":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("ingest on recovered flushed server: status %d, want 409", resp.StatusCode)
		}
	})
	t.Run("quarantined", func(t *testing.T) {
		dir := t.TempDir()
		// The first subscription on a fresh directory is id 1.
		inj, err := faultinject.ParseSchedule("sub1.process@1=panic:poisoned", 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := durConfig(dir)
		cfg.Faults = inj
		a := newServer(t, cfg)
		id, err := a.Subscribe(durConfigs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := ingestPost(a, Post{ID: 1, Time: 1, Text: "obama speaks"}); err != nil {
			t.Fatal(err)
		}
		st, _ := a.SubscriptionStats(id)
		if !st.Quarantined {
			t.Fatal("panic did not quarantine")
		}
		// The quarantine record rides the next committed batch.
		if err := ingestPost(a, Post{ID: 2, Time: 2, Text: "senate votes"}); err != nil {
			t.Fatal(err)
		}
		// Crash.

		b := durOpen(t, dir)
		got, err := b.SubscriptionStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Quarantined || got.QuarantineReason != st.QuarantineReason {
			t.Fatalf("recovered quarantine state %+v, want %+v", got, st)
		}
		// The ended stream answers 409 + X-Stream-End on blocking reads.
		ts := httptest.NewServer(Handler(b))
		defer ts.Close()
		resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=0&wait=5s", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-Stream-End") != EndReasonQuarantined {
			t.Fatalf("blocking poll on recovered quarantined sub: status %d, X-Stream-End %q",
				resp.StatusCode, resp.Header.Get("X-Stream-End"))
		}
	})
}

// TestQuarantinedGauge: mqdp_server_quarantined_subscriptions counts the
// registered quarantined subscriptions. It falls when one of them is
// unsubscribed, and a graceful restart that recovers from the snapshot
// alone reports the same count the process had before.
func TestQuarantinedGauge(t *testing.T) {
	dir := t.TempDir()
	open := func(faults *faultinject.Injector) (*Server, *obs.Gauge) {
		reg := obs.NewRegistry()
		cfg := durConfig(dir)
		cfg.Obs, cfg.Faults = reg, faults
		return newServer(t, cfg), reg.Gauge("mqdp_server_quarantined_subscriptions", "")
	}
	inj, err := faultinject.ParseSchedule("sub1.process@1=panic:poisoned; sub2.process@1=panic:poisoned", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, gauge := open(inj)
	for _, cfg := range durConfigs()[:3] {
		if _, err := a.Subscribe(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestPost(a, Post{ID: 1, Time: 1, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 2 {
		t.Fatalf("gauge after two quarantines = %v, want 2", got)
	}
	if err := a.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("gauge after unsubscribing a quarantined subscription = %v, want 1", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, gauge := open(nil)
	if m := b.Metrics(); m.Durability.ReplayedRecords != 0 {
		t.Fatalf("graceful restart replayed %d records, want a snapshot-only recovery", m.Durability.ReplayedRecords)
	}
	if st, err := b.SubscriptionStats(2); err != nil || !st.Quarantined {
		t.Fatalf("subscription 2 after restart: %+v, %v; want quarantined", st, err)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("gauge after restart = %v, want 1", got)
	}
}

// TestDurabilityDegradedReadOnly (satellite): an injected disk fault on
// the WAL append path latches read-only mode — ingest and registry
// mutations answer 503 + Retry-After while reads keep serving.
func TestDurabilityDegradedReadOnly(t *testing.T) {
	dir := t.TempDir()
	// Each ingest appends a batch record and its ack; the subscribe is
	// append 1, so the third ingest's batch record is append 6.
	inj, err := faultinject.ParseSchedule("wal.append@6+=disk:", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{
		Faults:     inj,
		Durability: DurabilityConfig{Dir: dir, Fsync: wal.SyncBatch},
	})
	id, err := s.Subscribe(durConfigs()[0]) // append 1
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(s, Post{ID: 1, Time: 1, Text: "obama speaks"}); err != nil { // appends 2+3
		t.Fatal(err)
	}
	if err := ingestPost(s, Post{ID: 2, Time: 2, Text: "senate votes"}); err != nil { // appends 4+5
		t.Fatal(err)
	}
	// Append 6 — the next batch record — hits the injected disk fault.
	err = ingestPost(s, Post{ID: 3, Time: 3, Text: "congress debates"})
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, faultinject.ErrDisk) {
		t.Fatalf("ingest on disk fault: %v, want ErrReadOnly wrapping ErrDisk", err)
	}
	// Latched: everything write-shaped refuses instantly now.
	if err := ingestPost(s, Post{ID: 4, Time: 4, Text: "x"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest while degraded: %v", err)
	}
	if _, err := s.Subscribe(durConfigs()[1]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("subscribe while degraded: %v", err)
	}
	if err := s.Unsubscribe(id); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("unsubscribe while degraded: %v", err)
	}
	if h := s.Health(); h.Status != "degraded" || h.DegradedReason == "" {
		t.Fatalf("health %+v, want degraded with a reason", h)
	}
	m := s.Metrics()
	if m.Durability == nil || !m.Durability.Degraded {
		t.Fatalf("metrics durability %+v, want degraded", m.Durability)
	}
	// Reads still serve: the applied prefix is pollable.
	es, err := s.Emissions(id, 0, 0)
	if err != nil {
		t.Fatalf("poll while degraded: %v", err)
	}
	_ = es
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"id":9,"time":9,"text":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("HTTP ingest while degraded: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp2, err := http.Get(fmt.Sprintf("%s/subscriptions/%d/emissions?after=0", ts.URL, id)); err != nil {
		t.Fatal(err)
	} else {
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("poll while degraded: status %d", resp2.StatusCode)
		}
	}
}

// TestDurabilityRegistryAppendFailure: a subscribe or unsubscribe whose
// WAL record cannot be written is refused with 503 + Retry-After, and the
// live registry stays as it was — so the live server and a restart on the
// same directory agree on which subscriptions exist.
func TestDurabilityRegistryAppendFailure(t *testing.T) {
	open := func(t *testing.T, dir, schedule string) (*Server, string) {
		t.Helper()
		inj, err := faultinject.ParseSchedule(schedule, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(t, Config{
			Faults:     inj,
			Durability: DurabilityConfig{Dir: dir, Fsync: wal.SyncBatch},
		})
		ts := httptest.NewServer(Handler(s))
		t.Cleanup(ts.Close)
		return s, ts.URL
	}
	refused := func(t *testing.T, resp *http.Response) {
		t.Helper()
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("status %d, Retry-After %q; want 503 with Retry-After 1", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	t.Run("subscribe", func(t *testing.T) {
		dir := t.TempDir()
		s, url := open(t, dir, "wal.append@1=disk:") // the subscribe record
		refused(t, postJSON(t, url+"/subscriptions", durConfigs()[0]))
		if n := s.Stats().Subscriptions; n != 0 {
			t.Fatalf("live server kept %d unjournaled subscriptions", n)
		}
		if n := durOpen(t, dir).Stats().Subscriptions; n != 0 {
			t.Fatalf("restart found %d subscriptions", n)
		}
	})
	t.Run("unsubscribe", func(t *testing.T) {
		dir := t.TempDir()
		s, url := open(t, dir, "wal.append@2=disk:") // the unsubscribe record
		id, err := s.Subscribe(durConfigs()[0])
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/subscriptions/%d", url, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, resp)
		if _, ok := s.lookup(id); !ok {
			t.Fatal("live server dropped a subscription whose removal was never journaled")
		}
		if _, ok := durOpen(t, dir).lookup(id); !ok {
			t.Fatalf("restart lost subscription %d", id)
		}
	})
}

// TestDurabilityCutBatchReplaysAckedPrefix: a batch the live run only
// partially accepted (request cancelled, out-of-order post) must recover
// to exactly the accepted prefix and the exact outcome the client was
// told — not a deadline-free re-application of the full batch.
func TestDurabilityCutBatchReplaysAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	a := durOpen(t, dir)
	if _, err := a.Subscribe(durConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	// Batch cut mid-way: the second post is out of order, so apply stops
	// after one accepted post with a conflict outcome.
	cutBatch := []Post{
		{ID: 1, Time: 10, Text: "obama speaks"},
		{ID: 2, Time: 5, Text: "senate votes"},
		{ID: 3, Time: 11, Text: "congress debates"},
	}
	cutRes, cutStatus, err := a.IngestBatch(context.Background(), cutBatch, "cut-key")
	if err == nil || cutRes.Accepted != 1 {
		t.Fatalf("cut batch: res %+v err %v, want 1 accepted with an error", cutRes, err)
	}
	// Batch refused before any post applied: the request context was
	// already cancelled, the live outcome is 0 accepted + retryable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	deadRes, deadStatus, err := a.IngestBatch(ctx, []Post{{ID: 4, Time: 12, Text: "bill passes"}}, "dead-key")
	if err == nil || deadRes.Accepted != 0 {
		t.Fatalf("cancelled batch: res %+v err %v, want 0 accepted with an error", deadRes, err)
	}
	liveIngested := a.Stats().Ingested
	// Crash (no snapshot, no close) and recover.

	b := durOpen(t, dir)
	if got := b.Stats().Ingested; got != liveIngested {
		t.Fatalf("recovered ingested %d, want %d — replay must apply the acked prefix, not the full batch", got, liveIngested)
	}
	for _, tc := range []struct {
		key    string
		res    IngestResult
		status int
	}{
		{"cut-key", cutRes, cutStatus},
		{"dead-key", deadRes, deadStatus},
	} {
		e, ok := b.idem.get(tc.key)
		if !ok {
			t.Fatalf("%s: outcome missing from recovered replay cache", tc.key)
		}
		if e.res != tc.res || e.status != tc.status {
			t.Fatalf("%s: recovered outcome %+v status %d, want %+v status %d — must replay verbatim",
				tc.key, e.res, e.status, tc.res, tc.status)
		}
	}
	// The retryable remainder re-drives cleanly against the recovered
	// server, exactly as it would have against the live one.
	if res, _, err := b.IngestBatch(context.Background(), []Post{{ID: 4, Time: 12, Text: "bill passes"}}, "dead-key-2"); err != nil || res.Accepted != 1 {
		t.Fatalf("retry after recovery: res %+v err %v", res, err)
	}
}

// TestDurabilityUndecodableRecordAbortsRecovery: a record whose framing
// validates but whose payload cannot be decoded must fail recovery with
// a typed error — never be silently skipped as if it were a torn tail,
// which would start the server with partial state.
func TestDurabilityUndecodableRecordAbortsRecovery(t *testing.T) {
	dir := t.TempDir()
	a := durOpen(t, dir)
	if _, err := a.Subscribe(durConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(a, Post{ID: 1, Time: 1, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a validly framed batch record with an undecodable payload at
	// the log tail (0xFF is a truncated uvarint key length).
	l, err := wal.Open(dir, wal.Options{NoTick: true, Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recBatch, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	if _, err := New(durConfig(dir)); err == nil {
		t.Fatal("recovery over an undecodable batch record reported success")
	}
}

// TestDurabilitySnapshotFallbackReplaysFullSuffix: snapshot retention
// keeps two generations so a damaged newest snapshot falls back to the
// older one — which only works if the WAL still holds every record after
// the OLDER snapshot. Pruning to the newest snapshot's LSN would leave a
// silent hole in the replayed history.
func TestDurabilitySnapshotFallbackReplaysFullSuffix(t *testing.T) {
	posts := durPosts(90)
	want, _ := runReference(t, posts, true)

	dir := t.TempDir()
	a := durOpen(t, dir)
	for _, cfg := range durConfigs() {
		if _, err := a.Subscribe(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ingest := func(ps []Post) {
		for _, p := range ps {
			if err := ingestPost(a, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(posts[:30])
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(posts[30:60])
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(posts[60:])
	// Damage the newest snapshot; recovery must fall back a generation
	// and replay everything after the older snapshot.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 retained snapshots, got %v (err %v)", snaps, err)
	}
	sort.Strings(snaps) // names embed the LSN in fixed-width hex
	data, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snaps[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := durOpen(t, dir)
	m := b.Metrics()
	if m.Durability.ReplayedPosts != 60 {
		t.Fatalf("replayed %d posts, want 60 (everything after the older snapshot)", m.Durability.ReplayedPosts)
	}
	b.Flush()
	compareEmissions(t, b, want)
}

// TestDurabilityCloseConcurrent: racing shutdown paths must not
// double-close the snapshot-loop channel.
func TestDurabilityCloseConcurrent(t *testing.T) {
	s := newServer(t, Config{Durability: DurabilityConfig{
		Dir: t.TempDir(), Fsync: wal.SyncBatch, SnapshotInterval: time.Hour,
	}})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestDurabilityTornTailRecovery truncates the live WAL segment at an
// arbitrary byte offset (a torn final write) and restarts: the valid
// prefix recovers, the damage is reported, and the server keeps working.
func TestDurabilityTornTailRecovery(t *testing.T) {
	posts := durPosts(40)
	dir := t.TempDir()
	a := durOpen(t, dir)
	if _, err := a.Subscribe(durConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		if err := ingestPost(a, p); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the tail: chop 20 bytes off the (only) segment — enough to eat
	// the final 12-byte ack record AND land inside the last batch record's
	// frame, so the last post is torn away entirely.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	b := durOpen(t, dir)
	m := b.Metrics()
	if m.Durability.RepairedBytes == 0 {
		t.Fatal("torn tail not reported as repaired")
	}
	// The last post fell inside the torn record; everything before it
	// replayed. The server accepts new appends after the repair.
	if m.Durability.ReplayedPosts != int64(len(posts)-1) {
		t.Fatalf("replayed %d posts, want %d", m.Durability.ReplayedPosts, len(posts)-1)
	}
	if err := ingestPost(b, posts[len(posts)-1]); err != nil {
		t.Fatalf("ingest after torn-tail repair: %v", err)
	}
}

// TestDurabilityRestartHonoursDedupConfig: a snapshot carries the deduper's
// remembered fingerprints, never its settings. Restarting on the same data
// directory with a different -dedup-window (or with dedup off) must apply
// the new Config, exactly as a WAL-only recovery does.
func TestDurabilityRestartHonoursDedupConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := durConfig(dir)
	cfg.DupDistance, cfg.DupWindow = 0, 8
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = fmt.Sprintf("distinct post number %d about topic %d", i, i*i)
	}
	var nextID int64
	// offer ingests text as the next post and reports whether it was
	// admitted (not dropped as a duplicate).
	offer := func(s *Server, text string) bool {
		t.Helper()
		nextID++
		before := s.Metrics().DroppedDups
		if err := ingestPost(s, Post{ID: nextID, Time: float64(nextID), Text: text}); err != nil {
			t.Fatal(err)
		}
		return s.Metrics().DroppedDups == before
	}

	a := newServer(t, cfg)
	for _, text := range texts {
		if !offer(a, text) {
			t.Fatalf("distinct post %q dropped", text)
		}
	}
	if offer(a, texts[0]) {
		t.Fatal("window 8 forgot its oldest post")
	}
	if err := a.Close(); err != nil { // Close snapshots
		t.Fatal(err)
	}

	// Narrower window: the newest two fingerprints survive, no more.
	cfg.DupWindow = 2
	b := newServer(t, cfg)
	if b.Metrics().Durability.SnapshotLSN == 0 {
		t.Fatal("restart did not load the snapshot")
	}
	if st := b.dedup.State(); st.Window != 2 || len(st.Recent) != 2 {
		t.Fatalf("restored deduper window = %d holding %d, want 2 holding 2", st.Window, len(st.Recent))
	}
	if got := b.Metrics().DroppedDups; got != 1 {
		t.Fatalf("dropped counter after restart = %d, want 1 (carried over)", got)
	}
	if offer(b, texts[7]) {
		t.Error("newest remembered post admitted again after restart")
	}
	if !offer(b, texts[0]) {
		t.Error("post outside the new window of 2 still dropped: the snapshot's window won")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Dedup off: the snapshot must not switch it back on.
	cfg.DupWindow = 0
	c := newServer(t, cfg)
	if c.dedup != nil {
		t.Fatal("snapshot re-enabled deduplication under DupWindow 0")
	}
	if !offer(c, texts[0]) {
		t.Error("duplicate dropped with dedup off")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Back on with a wider radius: starts empty, uses the new distance.
	cfg.DupDistance, cfg.DupWindow = 64, 4
	d := newServer(t, cfg)
	defer d.Close()
	if !offer(d, texts[1]) {
		t.Error("first post after re-enabling dedup dropped")
	}
	if offer(d, texts[2]) {
		t.Error("DupDistance 64 admitted a second post: the new distance was not applied")
	}
}
