package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mqdp"
	"mqdp/internal/faultinject"
	"mqdp/internal/match"
	"mqdp/internal/simhash"
	"mqdp/internal/synth"
)

// The routing-equivalence workload: a fixed random world, 16 subscriptions
// with randomly overlapping topic sets, one tweet sequence, a pipeline
// panic that quarantines subscription routingVictim on its 4th matched
// post, and an unsubscribe of the third profile before the flush.
const (
	routingVictim     = 5
	routingVictimPost = 4
	routingDupDist    = 3
	routingDupWindow  = 64
)

func routingWorkload() ([]SubscriptionConfig, []Post) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 5})
	rng := newRand(7)
	algos := []string{"streamscan+", "streamscan", "streamgreedy", "streamgreedy+", "instant"}
	cfgs := make([]SubscriptionConfig, 16)
	for i := range cfgs {
		cfgs[i] = SubscriptionConfig{
			Topics:    world.MatchTopics(world.SampleLabelSet(rng, 1+rng.Intn(4))),
			Lambda:    60 + float64(rng.Intn(120)),
			Tau:       float64(rng.Intn(30)),
			Algorithm: algos[i%len(algos)],
		}
	}
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 900, RatePerSec: 4, Seed: 6})
	posts := make([]Post, len(tweets))
	for i, tw := range tweets {
		posts[i] = Post{ID: int64(i + 1), Time: tw.Time, Text: tw.Text}
	}
	return cfgs, posts
}

// runRoutingServer streams the workload through a real server whose pool
// threshold is poolMin and returns every surviving subscription's
// emissions as JSON, keyed by id.
func runRoutingServer(t *testing.T, poolMin int) map[int64][]byte {
	t.Helper()
	old := poolFanoutMin
	poolFanoutMin = poolMin
	defer func() { poolFanoutMin = old }()
	cfgs, posts := routingWorkload()
	// Fire runs only after a match, so the trigger count is the victim's
	// matched-post count whatever the fan-out feeds it.
	inj, err := faultinject.ParseSchedule(
		fmt.Sprintf("sub%d.process@%d=panic:routing-prop-panic", routingVictim, routingVictimPost), 9)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{DupDistance: routingDupDist, DupWindow: routingDupWindow, Faults: inj})
	var ids []int64
	for _, cfg := range cfgs {
		id, err := s.Subscribe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, p := range posts {
		if err := ingestPost(s, p); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	// Unsubscribe one profile mid-API-surface to exercise posting removal,
	// then flush the rest.
	if err := s.Unsubscribe(ids[2]); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	st, err := s.SubscriptionStats(routingVictim)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined {
		t.Fatalf("threshold=%d: subscription %d not quarantined", poolMin, routingVictim)
	}
	out := make(map[int64][]byte)
	for _, id := range ids {
		if id == ids[2] {
			continue
		}
		es, err := s.Emissions(id, 0, 0)
		if err != nil {
			t.Fatalf("emissions %d: %v", id, err)
		}
		raw, err := json.Marshal(es)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = raw
	}
	return out
}

// runBroadcastOracle is the fan-out the routing index replaced, kept here
// as the reference: no symbol table, no inverted index, no pool. Every
// post that survives deduplication is offered to every live profile's
// uncompiled match.Matcher, and each profile owns one serial mqdp.NewStream
// processor. The victim stops at its scripted matched post, unprocessed,
// and is not flushed — what quarantine does to a real pipeline.
func runBroadcastOracle(t *testing.T) map[int64][]byte {
	t.Helper()
	cfgs, posts := routingWorkload()
	type profile struct {
		matcher *match.Matcher
		proc    mqdp.Processor
		matched int
		dead    bool
		out     []Emission
	}
	texts := make(map[int64]string, len(posts))
	deliver := func(p *profile, es []mqdp.Emission) {
		for _, e := range es {
			names := make([]string, len(e.Post.Labels))
			for i, a := range e.Post.Labels {
				names[i] = p.matcher.Topic(a).Name
			}
			p.out = append(p.out, Emission{
				Seq: int64(len(p.out) + 1), PostID: e.Post.ID, Time: e.Post.Value,
				Text: texts[e.Post.ID], Topics: names, EmitAt: e.EmitAt,
			})
		}
	}
	profiles := make([]*profile, len(cfgs))
	for i, cfg := range cfgs {
		m, err := match.NewMatcher(cfg.Topics)
		if err != nil {
			t.Fatal(err)
		}
		algo, err := parseStreamAlgo(cfg.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := mqdp.NewStream(algo, m.NumTopics(), cfg.Lambda, cfg.Tau)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = &profile{matcher: m, proc: proc}
	}
	dedup := simhash.NewDeduper(routingDupDist, routingDupWindow)
	for _, post := range posts {
		if !dedup.Offer(post.Text) {
			continue
		}
		texts[post.ID] = post.Text
		for i, p := range profiles {
			if p.dead {
				continue
			}
			labels := p.matcher.Match(post.Text)
			if len(labels) == 0 {
				continue
			}
			p.matched++
			if i+1 == routingVictim && p.matched == routingVictimPost {
				p.dead = true
				continue
			}
			es, err := p.proc.Process(mqdp.Post{ID: post.ID, Value: post.Time, Labels: labels})
			if err != nil {
				t.Fatalf("oracle profile %d: %v", i+1, err)
			}
			deliver(p, es)
		}
	}
	out := make(map[int64][]byte)
	for i, p := range profiles {
		if i == 2 {
			continue // unsubscribed before the flush
		}
		if !p.dead {
			deliver(p, p.proc.Flush())
		}
		raw, err := json.Marshal(p.out)
		if err != nil {
			t.Fatal(err)
		}
		out[int64(i+1)] = raw
	}
	return out
}

// TestRoutingEquivalence is routing's safety property: per-subscription
// emission streams are byte-identical to a broadcast fan-out, whether each
// post is fed on the worker pool or inline, across random topic overlap, a
// mid-stream quarantine and an unsubscribe. Routing must be a pure superset filter — it may only
// skip subscriptions that would have matched nothing.
func TestRoutingEquivalence(t *testing.T) {
	ref := runBroadcastOracle(t)
	var total int
	for _, raw := range ref {
		var es []Emission
		if err := json.Unmarshal(raw, &es); err != nil {
			t.Fatal(err)
		}
		total += len(es)
	}
	if total == 0 {
		t.Fatal("oracle produced no emissions; workload too sparse to prove anything")
	}
	// Every post pooled, the default, and every post inline: no post has
	// more candidates than there are subscriptions.
	cfgs, _ := routingWorkload()
	for _, poolMin := range []int{0, poolFanoutMin, len(cfgs) + 1} {
		t.Run(fmt.Sprintf("threshold=%d", poolMin), func(t *testing.T) {
			got := runRoutingServer(t, poolMin)
			if len(got) != len(ref) {
				t.Fatalf("subscription count %d, want %d", len(got), len(ref))
			}
			for id, want := range ref {
				if !bytes.Equal(got[id], want) {
					t.Errorf("subscription %d emissions diverged\n got: %s\nwant: %s", id, got[id], want)
				}
			}
		})
	}
}

// TestIngestScratchBounded checks the oversized-scratch policy: one
// pathological post must not pin a huge tokenize buffer on the server
// forever (the slice analogue of the wire pool's byte cap).
func TestIngestScratchBounded(t *testing.T) {
	s := newServer(t, Config{})
	if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0, Algorithm: "instant"}); err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(s, Post{ID: 1, Time: 0, Text: "obama speaks briefly"}); err != nil {
		t.Fatal(err)
	}
	small := cap(s.wordBuf)
	if small == 0 || small > keepIngestScratch {
		t.Fatalf("small-post scratch cap = %d, want (0, %d]", small, keepIngestScratch)
	}
	var huge bytes.Buffer
	for i := 0; i < 2*keepIngestScratch; i++ {
		fmt.Fprintf(&huge, "w%d ", i)
	}
	if err := ingestPost(s, Post{ID: 2, Time: 1, Text: huge.String()}); err != nil {
		t.Fatal(err)
	}
	if got := cap(s.wordBuf); got != 0 {
		t.Errorf("post-pathological wordBuf cap = %d, want 0 (dropped)", got)
	}
	// The next ordinary post re-grows a right-sized buffer.
	if err := ingestPost(s, Post{ID: 3, Time: 2, Text: "senate votes again"}); err != nil {
		t.Fatal(err)
	}
	if got := cap(s.wordBuf); got == 0 || got > keepIngestScratch {
		t.Errorf("recovered scratch cap = %d, want (0, %d]", got, keepIngestScratch)
	}
}

// TestRoutingSkippedAccounting checks the routed path's observable side
// channel: a post matching no subscription skips every live one, and the
// Metrics snapshot reports the skip count.
func TestRoutingSkippedAccounting(t *testing.T) {
	s := newServer(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 10, Tau: 0, Algorithm: "instant"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestPost(s, Post{ID: 1, Time: 0, Text: "nothing relevant here"}); err != nil {
		t.Fatal(err)
	}
	if err := ingestPost(s, Post{ID: 2, Time: 1, Text: "obama speaks"}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	// Post 1 skipped all 3 subscriptions; post 2 matched all 3.
	if m.RoutingSkipped != 3 {
		t.Errorf("RoutingSkipped = %d, want 3", m.RoutingSkipped)
	}
	if m.MatchedTotal != 3 {
		t.Errorf("MatchedTotal = %d, want 3", m.MatchedTotal)
	}
}
