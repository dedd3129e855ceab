package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mqdp"
	"mqdp/internal/faultinject"
	"mqdp/internal/match"
	"mqdp/internal/simhash"
	"mqdp/internal/synth"
	"mqdp/internal/textutil"
)

// The routing-equivalence workload: a fixed random world, 16 subscriptions
// (14 with randomly overlapping topic sets, then two crafted ones), one
// tweet sequence, a pipeline panic that quarantines subscription
// routingVictim on its 4th matched post, and registry writes between two
// ingests: before post routingChurnAt the third profile is unsubscribed
// and a late one subscribed, and before post routingLateUntil the late one
// is unsubscribed. At most 16 subscriptions are ever live, plus the
// padding routingWorkload is asked for.
const (
	routingVictim     = 5
	routingVictimPost = 4
	routingDupDist    = 3
	routingDupWindow  = 64
	routingChurnAt    = 1200
	routingLateUntil  = 2400
)

// routingWorkload returns the profiles subscribed before the first post,
// the late profile, the posts, and the crafted profiles' keywords: the one
// two topics of a profile share, and two of one topic that co-occur. pad
// copies of the random profiles sit between those and the crafted ones,
// widening every post's fan-out without moving the victim or the
// unsubscribed profile.
func routingWorkload(pad int) (cfgs []SubscriptionConfig, late SubscriptionConfig, posts []Post, shared string, pair [2]string) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 5})
	rng := newRand(7)
	algos := []string{"streamscan+", "streamscan", "streamgreedy", "streamgreedy+", "instant"}
	random := func(i int) SubscriptionConfig {
		return SubscriptionConfig{
			Topics:    world.MatchTopics(world.SampleLabelSet(rng, 1+rng.Intn(4))),
			Lambda:    60 + float64(rng.Intn(120)),
			Tau:       float64(rng.Intn(30)),
			Algorithm: algos[i%len(algos)],
		}
	}
	for i := 0; i < 14; i++ {
		cfgs = append(cfgs, random(i))
	}
	for i := 0; i < pad; i++ {
		cfgs = append(cfgs, cfgs[i%14])
	}
	kws := func(words ...string) []match.Keyword {
		out := make([]match.Keyword, len(words))
		for i, w := range words {
			out[i] = match.Keyword{Text: w, Weight: 1}
		}
		return out
	}
	// The shared keyword's one posting carries both labels; a post with
	// both paired keywords routes two postings of one subscription, whose
	// labels the fold must union.
	k0, k2 := world.Topics[0].Keywords, world.Topics[2].Keywords
	shared, pair = k0[1], [2]string{k2[0], k2[1]}
	cfgs = append(cfgs,
		SubscriptionConfig{Topics: []match.Topic{
			{Name: "shared-a", Keywords: kws(k0[0], shared)},
			{Name: "shared-b", Keywords: kws(shared, k0[2])},
		}, Lambda: 90, Tau: 10, Algorithm: "streamscan+"},
		SubscriptionConfig{Topics: []match.Topic{
			{Name: "pair", Keywords: kws(pair[0], pair[1])},
		}, Lambda: 90, Tau: 10, Algorithm: "streamgreedy"},
	)
	late = random(0)
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 900, RatePerSec: 4, Seed: 6})
	posts = make([]Post, len(tweets))
	for i, tw := range tweets {
		posts[i] = Post{ID: int64(i + 1), Time: tw.Time, Text: tw.Text}
	}
	return cfgs, late, posts, shared, pair
}

// runRoutingServer streams the workload, padded by pad profiles, through a
// real server and returns
// every subscription's emissions as JSON, keyed by id: polled after the
// flush, or just before the unsubscribe for the two profiles unsubscribed
// mid-stream.
func runRoutingServer(t *testing.T, pad int) map[int64][]byte {
	t.Helper()
	cfgs, late, posts, _, _ := routingWorkload(pad)
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
	out := make(map[int64][]byte)
	poll := func(id int64) {
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
	unsubscribe := func(id int64) {
		poll(id)
		if err := s.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	var lateID int64
	for i, p := range posts {
		switch i {
		case routingChurnAt:
			unsubscribe(ids[2])
			if lateID, err = s.Subscribe(late); err != nil {
				t.Fatal(err)
			}
		case routingLateUntil:
			unsubscribe(lateID)
		}
		if err := ingestPost(s, p); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	s.Flush()
	st, err := s.SubscriptionStats(routingVictim)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined {
		t.Fatalf("subscription %d not quarantined", routingVictim)
	}
	for _, id := range ids {
		if id != ids[2] {
			poll(id)
		}
	}
	return out
}

// runBroadcastOracle is the fan-out the routing index replaced, kept here
// as the reference: no symbol table and no inverted index. Every
// post that survives deduplication is offered to every profile live at
// its index, through the profile's uncompiled match.Matcher, and each
// profile owns one serial mqdp.NewStream processor. The victim stops at
// its scripted matched post, unprocessed, and is not flushed — what
// quarantine does to a real pipeline; a profile unsubscribed mid-stream
// stops at that post index, unflushed.
func runBroadcastOracle(t *testing.T, pad int) map[int64][]byte {
	t.Helper()
	cfgs, late, posts, _, _ := routingWorkload(pad)
	type profile struct {
		matcher  *match.Matcher
		proc     mqdp.Processor
		from, to int // live for post indexes [from, to)
		matched  int
		dead     bool
		out      []Emission
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
	profiles := make([]*profile, 0, len(cfgs)+1)
	for _, cfg := range append(cfgs, late) {
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
		profiles = append(profiles, &profile{matcher: m, proc: proc, to: len(posts)})
	}
	profiles[2].to = routingChurnAt
	profiles[len(cfgs)].from, profiles[len(cfgs)].to = routingChurnAt, routingLateUntil
	dedup := simhash.NewDeduper(routingDupDist, routingDupWindow)
	for idx, post := range posts {
		if !dedup.Offer(post.Text) {
			continue
		}
		texts[post.ID] = post.Text
		for i, p := range profiles {
			if p.dead || idx < p.from || idx >= p.to {
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
		if !p.dead && p.to == len(posts) {
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
// emission streams are byte-identical to a broadcast fan-out across random
// topic overlap, topics sharing a keyword, co-occurring keywords of one
// topic, a mid-stream quarantine, and a subscribe and unsubscribes between
// ingests.
// Routing is the match: it must reach exactly the subscriptions that
// match, each with the labels its matcher would return.
//
// The cases are named for the fan-out pool thresholds they once set; the
// pool is gone, and each case instead pads the workload with that many
// profiles, so the one inline fan-out is checked at the widths the pool
// used to take as well as below them.
func TestRoutingEquivalence(t *testing.T) {
	_, _, posts, shared, pair := routingWorkload(0)
	var sharedPosts, pairPosts int
	for _, p := range posts {
		words := textutil.Words(p.Text)
		if slices.Contains(words, shared) {
			sharedPosts++
		}
		if slices.Contains(words, pair[0]) && slices.Contains(words, pair[1]) {
			pairPosts++
		}
	}
	if sharedPosts == 0 || pairPosts == 0 {
		t.Fatalf("posts with the shared keyword %d, with both paired keywords %d; want both > 0", sharedPosts, pairPosts)
	}
	for _, pad := range []int{0, 17, 32} {
		t.Run(fmt.Sprintf("threshold=%d", pad), func(t *testing.T) {
			ref := runBroadcastOracle(t, pad)
			cfgs, _, _, _, _ := routingWorkload(pad)
			// The crafted profiles, the late one and the one unsubscribed
			// at the churn point must all emit, or their cases prove
			// nothing.
			for _, id := range []int64{3, int64(len(cfgs) - 1), int64(len(cfgs)), int64(len(cfgs) + 1)} {
				var es []Emission
				if err := json.Unmarshal(ref[id], &es); err != nil {
					t.Fatal(err)
				}
				if len(es) == 0 {
					t.Fatalf("oracle profile %d emitted nothing; workload too sparse to prove anything", id)
				}
			}
			got := runRoutingServer(t, pad)
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
// pathological post must not pin a huge tokenize or routing buffer on the
// server forever (the slice analogue of the wire pool's byte cap).
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

	// A post routed to more candidates than the bound must not pin the
	// routing scratch either, nor leave subscriptions in its tail: an
	// unsubscribed profile stays reachable from a stale pointer there.
	wide := make([]int64, 2*keepIngestScratch+10)
	for i := range wide {
		id, err := s.Subscribe(SubscriptionConfig{Topics: topic("obama"), Lambda: 10, Tau: 0, Algorithm: "instant"})
		if err != nil {
			t.Fatal(err)
		}
		wide[i] = id
	}
	if err := ingestPost(s, Post{ID: 4, Time: 3, Text: "obama everywhere"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range wide {
		if err := s.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestPost(s, Post{ID: 5, Time: 4, Text: "obama again"}); err != nil {
		t.Fatal(err)
	}
	if got := cap(s.postBuf); got > keepIngestScratch {
		t.Errorf("post-wide postBuf cap = %d, want ≤ %d", got, keepIngestScratch)
	}
	if got := cap(s.candBuf); got > keepIngestScratch {
		t.Errorf("post-wide candBuf cap = %d, want ≤ %d", got, keepIngestScratch)
	}
	pinned := 0
	for _, e := range s.postBuf[:cap(s.postBuf)] {
		if e.V.sub != nil {
			pinned++
		}
	}
	for _, c := range s.candBuf[:cap(s.candBuf)] {
		if c.sub != nil {
			pinned++
		}
	}
	if pinned != 0 {
		t.Errorf("routing scratch holds %d subscription pointers after the fan-out, want 0", pinned)
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

// TestRegistryWriteCost pins the price of a registry write: one Subscribe
// + Unsubscribe pair of a two-keyword instant profile (one keyword new to
// the symbol table, one from a shared set of 3,000) costs the same bytes
// and allocations with 10,000 profiles registered as with 100. Routing
// maps, symbol table and registry order that were cloned per write would
// scale the pair with the registry.
func TestRegistryWriteCost(t *testing.T) {
	const pairs = 200
	profile := func(i int) SubscriptionConfig {
		return SubscriptionConfig{
			Topics: []match.Topic{{Name: "t", Keywords: []match.Keyword{
				{Text: fmt.Sprintf("own%d", i), Weight: 1},
				{Text: fmt.Sprintf("shared%d", i%3000), Weight: 1},
			}}},
			Lambda:    60,
			Algorithm: "instant",
		}
	}
	cost := func(registered int) (bytesPerPair, allocsPerPair float64) {
		s := newServer(t, Config{})
		for i := 0; i < registered; i++ {
			if _, err := s.Subscribe(profile(i)); err != nil {
				t.Fatal(err)
			}
		}
		next := registered
		pair := func() {
			id, err := s.Subscribe(profile(next))
			if err != nil {
				t.Fatal(err)
			}
			next++
			if err := s.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		}
		pair() // the registry's first growth past its initial size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / pairs, testing.AllocsPerRun(pairs, pair)
	}
	smallBytes, smallAllocs := cost(100)
	bigBytes, bigAllocs := cost(10000)
	t.Logf("per pair: %.0f B, %.1f allocs at 100 profiles; %.0f B, %.1f allocs at 10,000", smallBytes, smallAllocs, bigBytes, bigAllocs)
	if bigBytes > 1.5*smallBytes {
		t.Errorf("bytes per pair at 10,000 profiles = %.0f, > 1.5x the %.0f at 100", bigBytes, smallBytes)
	}
	if bigAllocs > 1.2*smallAllocs {
		t.Errorf("allocs per pair at 10,000 profiles = %.1f, > 1.2x the %.1f at 100", bigAllocs, smallAllocs)
	}
}

// TestSymbolTableForgetsChurnedKeywords runs 10,000 subscribe/unsubscribe
// pairs, each profile with a unique keyword and one shared with a
// long-lived profile. Of every keyword ever interned, the table then holds
// only the live profile's. A refused or repeated subscribe takes no
// reference, and a quarantined profile keeps its keywords until it is
// unsubscribed.
func TestSymbolTableForgetsChurnedKeywords(t *testing.T) {
	s := newServer(t, Config{})
	profile := func(words ...string) SubscriptionConfig {
		var kws []match.Keyword
		for _, w := range words {
			kws = append(kws, match.Keyword{Text: w, Weight: 1})
		}
		return SubscriptionConfig{Topics: []match.Topic{{Name: "t", Keywords: kws}}, Lambda: 60, Algorithm: "instant"}
	}
	if _, err := s.Subscribe(profile("news")); err != nil {
		t.Fatal(err)
	}
	const churn = 10000
	words := []string{"news", "solo"}
	for i := 0; i < churn; i++ {
		w := fmt.Sprintf("own%d", i)
		words = append(words, w)
		id, err := s.Subscribe(profile(w, "news"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	bad := profile("refused")
	bad.Algorithm = "bogus"
	if _, err := s.Subscribe(bad); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := s.subscribe(1, profile("replayed")); err != nil {
		t.Fatal(err)
	}
	words = append(words, "refused", "replayed")
	if got := s.symtab.AppendSyms(nil, words); len(got) != 1 {
		t.Fatalf("%d of %d interned keywords still resolve after churn, want 1 (news)", len(got), len(words))
	}

	id, err := s.Subscribe(profile("solo"))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.lookup(id)
	sub.mu.Lock()
	sub.quarantine("test", s)
	sub.mu.Unlock()
	if got := s.symtab.AppendSyms(nil, []string{"solo"}); len(got) != 1 {
		t.Errorf("quarantine released the profile's keyword")
	}
	if err := s.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if got := s.symtab.AppendSyms(nil, words); len(got) != 1 {
		t.Errorf("%d keywords resolve after the quarantined profile left, want 1 (news)", len(got))
	}
}
