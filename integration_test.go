package mqdp_test

import (
	"testing"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/index"
	"mqdp/internal/lda"
	"mqdp/internal/match"
	"mqdp/internal/simhash"
	"mqdp/internal/stream"
	"mqdp/internal/synth"
)

// TestFullPipeline exercises the paper's Figure 1 architecture end to end:
// news corpus → LDA topics → tweet stream → inverted index → keyword match
// → SimHash dedup → MQDP solvers and streaming processors, with every cover
// independently verified.
func TestFullPipeline(t *testing.T) {
	// Query generation (§7.1).
	world := synth.NewWorld(synth.WorldConfig{BroadTopics: 3, TopicsPerBroad: 3, KeywordsPerTopic: 20, Seed: 21})
	corpus := lda.NewCorpus()
	for _, a := range synth.NewsCorpus(world, synth.NewsConfig{Articles: 300, WordsPerDoc: 60, Seed: 22}) {
		corpus.AddText(a.Text)
	}
	model, err := lda.Train(corpus, lda.Options{Topics: 9, Iterations: 40, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var topics []match.Topic
	for k := 0; k < 3; k++ {
		var kws []match.Keyword
		for _, tw := range model.TopKeywords(k, 20) {
			kws = append(kws, match.Keyword{Text: tw.Word, Weight: tw.Weight})
		}
		topics = append(topics, match.Topic{Name: "q", Keywords: kws})
	}
	matcher, err := match.NewMatcher(topics)
	if err != nil {
		t.Fatal(err)
	}

	// Stream → index.
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 900, RatePerSec: 4, DupRatio: 0.1, Seed: 24})
	ix := index.New()
	for _, tw := range tweets {
		if err := ix.Add(index.Doc{ID: tw.ID, Time: tw.Time, Text: tw.Text}); err != nil {
			t.Fatal(err)
		}
	}

	// Match + dedup.
	matched := ix.Match(matcher, match.ByTime, 0, 900)
	if len(matched) == 0 {
		t.Fatal("no posts matched the LDA topics")
	}
	dedup := simhash.NewDeduper(10, 2048)
	var posts []mqdp.Post
	for _, p := range matched {
		if dedup.Offer(ix.Doc(int32(p.ID)).Text) {
			posts = append(posts, p)
		}
	}
	if len(posts) == 0 {
		t.Fatal("dedup dropped everything")
	}

	// Offline solving, all algorithms that scale.
	inst, err := mqdp.NewInstance(posts, matcher.NumTopics())
	if err != nil {
		t.Fatal(err)
	}
	lambda := 60.0
	sizes := map[mqdp.Algorithm]int{}
	for _, algo := range []mqdp.Algorithm{mqdp.Scan, mqdp.ScanPlus, mqdp.GreedySC} {
		cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: lambda, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if cover.Size() == 0 || cover.Size() > inst.Len() {
			t.Fatalf("%s: implausible cover size %d of %d", algo, cover.Size(), inst.Len())
		}
		sizes[algo] = cover.Size()
	}
	if sizes[mqdp.ScanPlus] > sizes[mqdp.Scan] {
		t.Errorf("Scan+ (%d) worse than Scan (%d)", sizes[mqdp.ScanPlus], sizes[mqdp.Scan])
	}

	// Streaming over the same matched stream.
	proc, err := mqdp.NewStream(mqdp.StreamScanPlus, matcher.NumTopics(), lambda, 30)
	if err != nil {
		t.Fatal(err)
	}
	emissions, err := mqdp.RunStream(posts, proc)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]int{}
	for i := 0; i < inst.Len(); i++ {
		byID[inst.Post(i).ID] = i
	}
	var sel []int
	for _, e := range emissions {
		sel = append(sel, byID[e.Post.ID])
	}
	if err := mqdp.Verify(inst, lambda, sel); err != nil {
		t.Fatalf("streaming emissions do not cover the matched stream: %v", err)
	}
}

// TestSentimentDimensionPipeline checks the alternative diversity dimension:
// matched posts projected on sentiment and diversified with proportional λ.
func TestSentimentDimensionPipeline(t *testing.T) {
	world := synth.NewWorld(synth.WorldConfig{BroadTopics: 2, TopicsPerBroad: 2, Seed: 31})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 4, TopicRatio: 0.6, Seed: 32})
	all := make([]int, len(world.Topics))
	for i := range all {
		all[i] = i
	}
	matcher, err := match.NewMatcher(world.MatchTopics(all))
	if err != nil {
		t.Fatal(err)
	}
	var posts []core.Post
	for _, tw := range tweets {
		if p, ok := matcher.PostFromDoc(tw.ID, tw.Time, tw.Text, match.BySentiment); ok {
			posts = append(posts, p)
		}
	}
	if len(posts) < 50 {
		t.Fatalf("only %d posts matched", len(posts))
	}
	for _, p := range posts {
		if p.Value < -1 || p.Value > 1 {
			t.Fatalf("sentiment value %v outside [-1, 1]", p.Value)
		}
	}
	inst, err := core.NewInstance(posts, matcher.NumTopics())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewProportionalLambda(inst, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cover := inst.Scan(pl)
	if err := inst.VerifyCover(pl, cover.Selected); err != nil {
		t.Fatalf("proportional sentiment cover invalid: %v", err)
	}
	if cover.Size() == 0 || cover.Size() >= inst.Len() {
		t.Errorf("implausible sentiment cover: %d of %d", cover.Size(), inst.Len())
	}
}

// TestStreamMatchesOfflineOnPipelineData re-checks the τ ≥ λ equivalence of
// StreamScan and offline Scan on realistic (matched) data rather than
// synthetic label streams.
func TestStreamMatchesOfflineOnPipelineData(t *testing.T) {
	posts := synth.GeneratePosts(synth.PostStreamConfig{Duration: 1200, RatePerSec: 1, NumLabels: 4, Overlap: 1.6, Seed: 41})
	in, err := core.NewInstance(posts, 4)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 45.0
	offline := in.Scan(core.FixedLambda(lambda))
	proc, err := stream.NewScan(4, lambda, lambda, false)
	if err != nil {
		t.Fatal(err)
	}
	es, err := stream.Run(posts, proc)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != offline.Size() {
		t.Errorf("StreamScan(τ=λ) emitted %d, offline Scan selected %d", len(es), offline.Size())
	}
}
