package mqdp_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/faultinject"
	"mqdp/internal/obs"
	"mqdp/internal/server"
	"mqdp/internal/stream"
	"mqdp/internal/synth"
)

// TestDayScaleSoak replays a full synthetic day (the paper's evaluation
// scale, ÷10 rate) through every offline algorithm and streaming processor,
// asserting the cross-cutting invariants: all covers verify, exact ordering
// relations hold, and every emission respects its delay bound. Skipped under
// -short.
func TestDayScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("day-scale soak skipped in -short mode")
	}
	const numLabels = 10
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration:   86400,
		RatePerSec: 0.105 * numLabels,
		NumLabels:  numLabels,
		Overlap:    1.4,
		Diurnal:    true,
		Seed:       77,
	})
	inst, err := mqdp.NewInstance(posts, numLabels)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d posts over 24h, %d labels", inst.Len(), numLabels)

	lambda := 600.0
	sizes := map[mqdp.Algorithm]int{}
	for _, algo := range []mqdp.Algorithm{mqdp.Scan, mqdp.ScanPlus, mqdp.GreedySC} {
		cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: lambda, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		sizes[algo] = cover.Size()
		st, err := inst.Stats(core.FixedLambda(lambda), cover.Selected)
		if err != nil {
			t.Fatalf("%s stats: %v", algo, err)
		}
		if st.MaxPairDistance > lambda {
			t.Errorf("%s: pair distance %v exceeds λ", algo, st.MaxPairDistance)
		}
		if st.CompressionRatio > 0.2 {
			t.Errorf("%s: compression ratio %v suspiciously weak at λ=10min", algo, st.CompressionRatio)
		}
	}
	if sizes[mqdp.ScanPlus] > sizes[mqdp.Scan] {
		t.Errorf("Scan+ (%d) worse than Scan (%d)", sizes[mqdp.ScanPlus], sizes[mqdp.Scan])
	}

	tau := 30.0
	for _, algo := range []mqdp.StreamAlgorithm{
		mqdp.StreamScan, mqdp.StreamScanPlus, mqdp.StreamGreedy, mqdp.StreamGreedyPlus,
	} {
		proc, err := mqdp.NewStream(algo, numLabels, lambda, tau)
		if err != nil {
			t.Fatal(err)
		}
		es, err := mqdp.RunStream(posts, proc)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		byID := make(map[int64]int, inst.Len())
		for i := 0; i < inst.Len(); i++ {
			byID[inst.Post(i).ID] = i
		}
		sel := make([]int, 0, len(es))
		for _, e := range es {
			sel = append(sel, byID[e.Post.ID])
			if d := e.EmitAt - e.Post.Value; d < -1e-9 || d > tau+1e-9 {
				t.Fatalf("%s: delay %v outside [0, %v]", algo, d, tau)
			}
		}
		if err := mqdp.Verify(inst, lambda, sel); err != nil {
			t.Fatalf("%s emissions do not cover the day: %v", algo, err)
		}
		// Streaming can't beat the best offline solution on this data by
		// definition (offline optimum ≤ any online one is not guaranteed
		// per-algorithm, but staying within 5× of GreedySC flags blowups).
		if len(es) > 5*sizes[mqdp.GreedySC] {
			t.Errorf("%s emitted %d posts, > 5× offline GreedySC (%d)", algo, len(es), sizes[mqdp.GreedySC])
		}
	}

	// The adaptive processor also survives the day.
	adaptive, err := stream.NewAdaptiveScan(numLabels, lambda, tau)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Run(posts, adaptive); err != nil {
		t.Fatalf("adaptive: %v", err)
	}
}

// TestSoakWithFaults replays an hour of synthetic traffic through the full
// HTTP serving path while a low-rate probabilistic fault schedule drops
// requests and responses, injects 503s and latency, and panics one
// subscription's pipeline mid-stream. It then reconciles the books: the
// retrying client delivered every post exactly once, the observability
// counters match the injector's own record, and every healthy subscription
// kept a contiguous, non-blank emission sequence. Skipped under -short.
func TestSoakWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-schedule soak skipped in -short mode")
	}
	world := synth.NewWorld(synth.WorldConfig{Seed: 31})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 3600, RatePerSec: 2, DupRatio: 0, Seed: 32})

	reg := obs.NewRegistry()
	srvInj, err := faultinject.ParseSchedule("sub2.process@40=panic:soak-injected", 5)
	if err != nil {
		t.Fatal(err)
	}
	core, err := server.New(server.Config{Obs: reg, Faults: srvInj})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(core))
	defer ts.Close()

	clInj, err := faultinject.ParseSchedule(
		"POST /ingest@p0.03=drop; POST /ingest@p0.02=droprx; POST /ingest@p0.015=status:503; POST /ingest@p0.01=delay:2ms", 6)
	if err != nil {
		t.Fatal(err)
	}
	cl := server.NewClient(ts.URL)
	cl.HTTPClient = &http.Client{Transport: faultinject.NewTransport(nil, clInj), Timeout: 10 * time.Second}
	cl.Retry = &server.RetryPolicy{MaxAttempts: 25, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}

	rng := rand.New(rand.NewSource(33))
	ids := make([]int64, 0, 8)
	algos := []string{"streamscan", "streamscan+", "streamgreedy", "streamgreedy+", "instant"}
	for i := 0; i < 8; i++ {
		id, err := cl.Subscribe(context.Background(), server.SubscriptionConfig{
			Topics:    world.MatchTopics(world.SampleLabelSet(rng, 2+i%3)),
			Lambda:    float64(60 * (1 + i%3)),
			Tau:       float64(30 * (i % 2)),
			Algorithm: algos[i%len(algos)],
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	const batchSize = 10
	var ingestCalls int64
	for at := 0; at < len(tweets); at += batchSize {
		end := min(at+batchSize, len(tweets))
		batch := make([]server.Post, 0, end-at)
		for _, tw := range tweets[at:end] {
			batch = append(batch, server.Post{ID: tw.ID, Time: tw.Time, Text: tw.Text})
		}
		n, err := cl.Ingest(context.Background(), batch...)
		ingestCalls++
		if err != nil || n != len(batch) {
			t.Fatalf("batch at %d: accepted (%d, %v), want (%d, nil)", at, n, err, len(batch))
		}
	}
	if err := cl.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly once: accepted == stream length even though requests and
	// responses were lost along the way.
	if got := core.Stats().Ingested; got != int64(len(tweets)) {
		t.Fatalf("server ingested %d posts, stream has %d", got, len(tweets))
	}

	// Reconcile the client's retries (attempts beyond one per logical
	// call) and the server's counters against the injector's record.
	retries := clInj.Calls("POST /ingest") - ingestCalls
	counts := clInj.Counts()
	injectedFailures := counts["drop"] + counts["droprx"] + counts["status"]
	if injectedFailures == 0 {
		t.Fatal("probabilistic schedule injected no failures; seed no longer exercises the fault paths")
	}
	if retries != injectedFailures {
		t.Errorf("client retries = %d, injector failures = %d", retries, injectedFailures)
	}
	m := core.Metrics()
	if got, want := m.Quarantines, srvInj.Counts()["panic"]; got != want || got != 1 {
		t.Errorf("quarantines = %d, injected panics = %d, want exactly 1", got, want)
	}
	st, err := core.SubscriptionStats(2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined || !strings.Contains(st.QuarantineReason, "soak-injected") {
		t.Fatalf("subscription 2 not quarantined as scripted: %+v", st)
	}

	// Healthy subscriptions: contiguous seqs, no blank texts.
	for _, id := range ids {
		if id == 2 {
			continue
		}
		es, err := core.Emissions(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) == 0 {
			t.Errorf("subscription %d emitted nothing over an hour of traffic", id)
		}
		for i, e := range es {
			if i > 0 && e.Seq != es[i-1].Seq+1 {
				t.Fatalf("subscription %d: seq gap %d → %d", id, es[i-1].Seq, e.Seq)
			}
			if e.Text == "" {
				t.Fatalf("subscription %d: blank emission %+v", id, e)
			}
		}
	}
	t.Logf("soak with faults: %d posts, %d retries (drop %d, droprx %d, 503 %d, delay %d), 1 quarantine",
		len(tweets), retries, counts["drop"], counts["droprx"], counts["status"], counts["delay"])
}
