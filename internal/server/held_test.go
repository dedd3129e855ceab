package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/match"
	"mqdp/internal/obs"
	"mqdp/internal/wal"
)

func topic(name string) []match.Topic {
	return []match.Topic{{Name: name, Keywords: []match.Keyword{{Text: name, Weight: 1}}}}
}

// TestReusedPostIDCover ingests two posts under one client ID within one
// decision window. Processors see server-assigned sequences, so on every
// algorithm the emitted set λ-covers all three posts and each emission
// carries its own post's text.
func TestReusedPostIDCover(t *testing.T) {
	posts := []Post{
		{ID: 7, Time: 0, Text: "obama first speech"},
		{ID: 7, Time: 2, Text: "obama second rally totally different"},
		{ID: 8, Time: 20, Text: "obama later"},
	}
	const lambda = 0.5
	for _, algo := range []string{"streamscan", "streamscan+", "streamgreedy", "streamgreedy+", "instant"} {
		t.Run(algo, func(t *testing.T) {
			s := newServer(t, Config{})
			id, err := s.Subscribe(SubscriptionConfig{Topics: topic("obama"), Lambda: lambda, Tau: 5, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.IngestBatch(context.Background(), posts, ""); err != nil {
				t.Fatal(err)
			}
			s.Flush()
			es, err := s.Emissions(id, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]core.Post, len(posts))
			for i, p := range posts {
				ps[i] = core.Post{ID: int64(i), Value: p.Time, Labels: []core.Label{0}}
			}
			inst, err := core.NewInstance(ps, 1)
			if err != nil {
				t.Fatal(err)
			}
			var selected []int
			for _, e := range es {
				i := findPost(posts, e.Time)
				if i < 0 || posts[i].ID != e.PostID || posts[i].Text != e.Text {
					t.Errorf("emission %+v is not one of the ingested posts", e)
					continue
				}
				selected = append(selected, i)
			}
			if err := inst.VerifyCover(core.FixedLambda(lambda), selected); err != nil {
				t.Errorf("emissions %+v: %v", es, err)
			}
			if st, _ := s.SubscriptionStats(id); st.TextMisses != 0 {
				t.Errorf("text_misses = %d, want 0", st.TextMisses)
			}
		})
	}
}

func findPost(posts []Post, time float64) int {
	for i, p := range posts {
		if p.Time == time {
			return i
		}
	}
	return -1
}

// TestDormantSubscriptionKeepsText pins why held posts are per
// subscription: StreamScan decides its t 0 post only when its next match
// arrives, a thousand seconds and a thousand other posts later, so any
// server-wide trim by time would lose the text.
func TestDormantSubscriptionKeepsText(t *testing.T) {
	s := newServer(t, Config{})
	a, err := s.Subscribe(SubscriptionConfig{Topics: topic("obama"), Lambda: 1, Tau: 5, Algorithm: "streamscan"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(SubscriptionConfig{Topics: topic("news"), Algorithm: "instant"}); err != nil {
		t.Fatal(err)
	}
	batch := []Post{{ID: 1, Time: 0, Text: "obama at dawn"}}
	for i := 1; i <= 1000; i++ {
		batch = append(batch, Post{ID: int64(i + 1), Time: float64(i), Text: fmt.Sprintf("news item %d", i)})
	}
	batch = append(batch, Post{ID: 1002, Time: 1001, Text: "obama at dusk"})
	if _, _, err := s.IngestBatch(context.Background(), batch, ""); err != nil {
		t.Fatal(err)
	}
	es, err := s.Emissions(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) == 0 || es[0].PostID != 1 || es[0].Text != "obama at dawn" {
		t.Fatalf("dormant subscription emitted %+v, want post 1 with its text first", es)
	}
	if st, _ := s.SubscriptionStats(a); st.TextMisses != 0 {
		t.Errorf("text_misses = %d, want 0", st.TextMisses)
	}
}

// TestHeldPostAllocBudget pins the per-match allocation budget: holding a
// matched, undecided post costs a subscription nothing (amortised) beyond
// the post's one shared record, and an Instant emission costs at most one
// allocation — its topic names are the subscription's shared slice. 64
// subscriptions make a fan-out wide enough that any per-post hand-off
// (goroutines, a result slice) would show up per subscription.
func TestHeldPostAllocBudget(t *testing.T) {
	perSub := func(cfg SubscriptionConfig) (one, many, each float64) {
		perPost := func(subs int) float64 {
			s := newServer(t, Config{})
			for i := 0; i < subs; i++ {
				if _, err := s.Subscribe(cfg); err != nil {
					t.Fatal(err)
				}
			}
			now := 0.0
			post := func() {
				now++
				if _, _, err := s.ingestOne(context.Background(), Post{ID: 1, Time: now, Text: "obama speaks"}, obs.TraceID{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // warm the scratch
				post()
			}
			return testing.AllocsPerRun(2000, post)
		}
		one, many = perPost(1), perPost(64)
		t.Logf("%s: %.0f allocs/post at 1 subscription, %.0f at 64", cfg.Algorithm, one, many)
		return one, many, (many - one) / 63
	}
	if one, many, each := perSub(SubscriptionConfig{Topics: topic("obama"), Lambda: 1e9, Tau: 1e9, Algorithm: "streamscan"}); each > 0 {
		t.Errorf("undecided held post: %.0f allocs/post at 1 subscription, %.0f at 64 (%.2f per subscription), want 0", one, many, each)
	}
	// λ = 0.5 with posts 1 s apart: Instant emits every post.
	if one, many, each := perSub(SubscriptionConfig{Topics: topic("obama"), Lambda: 0.5, Algorithm: "instant"}); each > 1 {
		t.Errorf("instant emission: %.0f allocs/post at 1 subscription, %.0f at 64 (%.2f per emission), want ≤ 1", one, many, each)
	}
}

// TestSnapshotStoresHeldPostOnce: a post held by N subscriptions is one
// record in the snapshot, and the restored subscriptions emit from those
// records exactly what an uninterrupted server emits.
func TestSnapshotStoresHeldPostOnce(t *testing.T) {
	const subs = 5
	cfg := SubscriptionConfig{Topics: topic("obama"), Lambda: 100, Tau: 100, Algorithm: "streamscan"}
	posts := []Post{{ID: 1, Time: 0, Text: "obama one"}, {ID: 2, Time: 5, Text: "obama two"}, {ID: 3, Time: 10, Text: "obama three"}}
	later := []Post{{ID: 4, Time: 300, Text: "obama four"}}
	ref := newServer(t, Config{})
	dir := t.TempDir()
	a := durOpen(t, dir)
	for i := 0; i < subs; i++ {
		for _, s := range []*Server{ref, a} {
			if _, err := s.Subscribe(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range []*Server{ref, a} {
		if _, _, err := s.IngestBatch(context.Background(), posts, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wal.LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snap walSnap
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Posts) != len(posts) {
		t.Errorf("snapshot stores %d posts, want %d (each once)", len(snap.Posts), len(posts))
	}
	for _, ss := range snap.Subs {
		if len(ss.Held) != len(posts) {
			t.Errorf("subscription %d holds %d seqs, want %d", ss.ID, len(ss.Held), len(posts))
		}
	}
	if n := bytes.Count(payload, []byte("obama two")); n != 1 {
		t.Errorf("post text written %d times, want once", n)
	}

	b := durOpen(t, dir)
	for _, s := range []*Server{ref, b} {
		if _, _, err := s.IngestBatch(context.Background(), later, ""); err != nil {
			t.Fatal(err)
		}
		s.Flush()
	}
	want := make(map[int64][]Emission, subs)
	for id := int64(1); id <= subs; id++ {
		want[id], _ = ref.Emissions(id, 0, 0)
		if len(want[id]) == 0 || want[id][0].Text != "obama three" {
			t.Fatalf("reference subscription %d emitted %+v, want the held post 3 first", id, want[id])
		}
	}
	compareEmissions(t, b, want)
	if m := b.Metrics(); m.TextMisses != 0 {
		t.Errorf("text_misses = %d after restore, want 0", m.TextMisses)
	}
}

// TestSnapshotVersionRefused: a snapshot written before held posts were
// stored once carries no Version, and its processors name posts by client
// ID; recovery must fail naming the version instead of half-loading it.
func TestSnapshotVersionRefused(t *testing.T) {
	dir := t.TempDir()
	a := durOpen(t, dir)
	if _, err := a.Subscribe(SubscriptionConfig{Topics: topic("obama"), Lambda: 1, Tau: 100}); err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(a, Post{ID: 1, Time: 0, Text: "obama one"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	lsn, _, err := wal.LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The old layout: no Version, texts per subscription.
	type oldSub struct {
		ID    int64
		Cfg   SubscriptionConfig
		Texts []Post
	}
	old := struct {
		NextID   int64
		Ingested int64
		Subs     []oldSub
	}{NextID: 1, Ingested: 1, Subs: []oldSub{{ID: 1, Cfg: SubscriptionConfig{Topics: topic("obama"), Lambda: 1, Tau: 100}, Texts: []Post{{ID: 1, Time: 0, Text: "obama one"}}}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(dir, lsn, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, err = New(durConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "snapshot version 0") {
		t.Fatalf("New on a version-0 snapshot: err = %v, want one naming version 0", err)
	}
}
