package synth

import (
	"math"
	"math/rand"
	"testing"

	"mqdp/internal/match"
	"mqdp/internal/simhash"
)

func TestNewWorldShape(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 4, TopicsPerBroad: 5, KeywordsPerTopic: 20, Seed: 1})
	if len(w.Broad) != 4 {
		t.Fatalf("broad topics = %d", len(w.Broad))
	}
	if len(w.Topics) != 20 {
		t.Fatalf("topics = %d, want 20", len(w.Topics))
	}
	for ti, topic := range w.Topics {
		if len(topic.Keywords) != 20 {
			t.Errorf("topic %d has %d keywords", ti, len(topic.Keywords))
		}
		if topic.Broad < 0 || topic.Broad >= 4 {
			t.Errorf("topic %d broad = %d", ti, topic.Broad)
		}
	}
	for g, ids := range w.ByBroad {
		if len(ids) != 5 {
			t.Errorf("broad %d has %d topics", g, len(ids))
		}
		for _, ti := range ids {
			if w.Topics[ti].Broad != g {
				t.Errorf("topic %d grouped under wrong broad topic", ti)
			}
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := NewWorld(WorldConfig{Seed: 5})
	b := NewWorld(WorldConfig{Seed: 5})
	if a.Topics[3].Keywords[7] != b.Topics[3].Keywords[7] {
		t.Error("same seed produced different worlds")
	}
	c := NewWorld(WorldConfig{Seed: 6})
	if a.Topics[3].Keywords[7] == c.Topics[3].Keywords[7] {
		t.Error("different seeds produced identical keyword (suspicious)")
	}
}

func TestSampleLabelSetWithinBroadTopic(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 5, TopicsPerBroad: 8, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		set := w.SampleLabelSet(rng, 4)
		if len(set) != 4 {
			t.Fatalf("label set size = %d", len(set))
		}
		broad := w.Topics[set[0]].Broad
		seen := map[int]bool{}
		for _, ti := range set {
			if seen[ti] {
				t.Fatal("duplicate topic in label set")
			}
			seen[ti] = true
			if w.Topics[ti].Broad != broad {
				t.Fatal("label set spans broad topics despite enough topics")
			}
		}
	}
}

func TestSampleLabelSetPadsWhenBroadTooSmall(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 3, TopicsPerBroad: 2, Seed: 2})
	rng := rand.New(rand.NewSource(4))
	set := w.SampleLabelSet(rng, 5)
	if len(set) != 5 {
		t.Fatalf("padded label set size = %d, want 5", len(set))
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z := NewZipf(10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(rng)]++
	}
	if !(counts[0] > counts[4] && counts[4] > counts[9]) {
		t.Errorf("zipf counts not decreasing: %v", counts)
	}
	uniform := NewZipf(10, 0)
	counts = make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[uniform.Sample(rng)]++
	}
	for i, c := range counts {
		if c < 1400 || c > 2600 {
			t.Errorf("uniform zipf bucket %d = %d, want ≈2000", i, c)
		}
	}
}

func TestNewsCorpusFeedsTopics(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 3, TopicsPerBroad: 3, KeywordsPerTopic: 15, Seed: 1})
	arts := NewsCorpus(w, NewsConfig{Articles: 50, WordsPerDoc: 60, Seed: 2})
	if len(arts) != 50 {
		t.Fatalf("articles = %d", len(arts))
	}
	for _, a := range arts {
		if len(a.Text) == 0 || len(a.Topics) == 0 {
			t.Fatal("empty article")
		}
	}
}

func TestTweetStreamOrderedAndScaled(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 3, TopicsPerBroad: 3, Seed: 1})
	tweets := TweetStream(w, StreamConfig{Duration: 1200, RatePerSec: 2, Seed: 3})
	if len(tweets) < 1800 || len(tweets) > 3000 {
		t.Fatalf("tweets = %d, want ≈2400 for 1200s at 2/s", len(tweets))
	}
	for i := 1; i < len(tweets); i++ {
		if tweets[i].Time < tweets[i-1].Time {
			t.Fatal("tweets out of time order")
		}
	}
	ids := map[int64]bool{}
	for _, tw := range tweets {
		if ids[tw.ID] {
			t.Fatal("duplicate tweet ID")
		}
		ids[tw.ID] = true
		if tw.Time < 0 || tw.Time >= 1200 {
			t.Fatalf("tweet time %v outside [0, 1200)", tw.Time)
		}
	}
}

func TestTweetStreamTopicalTweetsMatchable(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 2, TopicsPerBroad: 3, Seed: 1})
	tweets := TweetStream(w, StreamConfig{Duration: 600, RatePerSec: 3, TopicRatio: 0.5, Seed: 4})
	all := make([]int, len(w.Topics))
	for i := range all {
		all[i] = i
	}
	m, err := match.NewMatcher(w.MatchTopics(all))
	if err != nil {
		t.Fatal(err)
	}
	matched, topical := 0, 0
	for _, tw := range tweets {
		if len(tw.Topics) == 0 {
			continue
		}
		topical++
		labels := m.Match(tw.Text)
		ok := false
		for _, want := range tw.Topics {
			for _, got := range labels {
				if int(got) == want {
					ok = true
				}
			}
		}
		if ok {
			matched++
		}
	}
	if topical == 0 {
		t.Fatal("no topical tweets generated")
	}
	if float64(matched) < 0.9*float64(topical) {
		t.Errorf("matcher recovered %d/%d topical tweets; generator keywords too weak", matched, topical)
	}
}

func TestTweetStreamNearDuplicates(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 2, TopicsPerBroad: 2, Seed: 1})
	tweets := TweetStream(w, StreamConfig{Duration: 400, RatePerSec: 3, DupRatio: 0.3, Seed: 5})
	// Tweets are short, so single-word edits move many fingerprint bits; a
	// wider Hamming threshold is needed than for web pages.
	d := simhash.NewDeduper(12, 512)
	kept := 0
	for _, tw := range tweets {
		if d.Offer(tw.Text) {
			kept++
		}
	}
	dropRate := 1 - float64(kept)/float64(len(tweets))
	if dropRate < 0.1 {
		t.Errorf("dedup drop rate %.3f; generator duplicates not detectable", dropRate)
	}
	// A strict threshold still catches the exact-copy retweets.
	strict := simhash.NewDeduper(0, 512)
	kept = 0
	for _, tw := range tweets {
		if strict.Offer(tw.Text) {
			kept++
		}
	}
	if rate := 1 - float64(kept)/float64(len(tweets)); rate < 0.03 {
		t.Errorf("exact-dup drop rate %.3f; expected ≥ 3%% identical retweets", rate)
	}
	// Dup is the ground truth for those injections, and only for them.
	marked := 0
	for _, tw := range tweets {
		if tw.Dup {
			marked++
		}
	}
	if share := float64(marked) / float64(len(tweets)); share < 0.25 || share > 0.35 {
		t.Errorf("%.3f of tweets marked Dup at DupRatio 0.3", share)
	}
	for _, tw := range TweetStream(w, StreamConfig{Duration: 400, RatePerSec: 3, Seed: 5}) {
		if tw.Dup {
			t.Fatal("tweet marked Dup at DupRatio 0")
		}
	}
}

func TestDiurnalRateVaries(t *testing.T) {
	w := NewWorld(WorldConfig{BroadTopics: 2, TopicsPerBroad: 2, Seed: 1})
	tweets := TweetStream(w, StreamConfig{Duration: 86400, RatePerSec: 0.5, Diurnal: true, Seed: 6})
	// Bucket into 24 hours and compare min vs max hourly volume.
	buckets := make([]int, 24)
	for _, tw := range tweets {
		buckets[int(tw.Time/3600)]++
	}
	min, max := buckets[0], buckets[0]
	for _, b := range buckets {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if float64(max) < 1.5*float64(min) {
		t.Errorf("diurnal variation too flat: min %d max %d", min, max)
	}
}

func TestGeneratePostsOverlapControl(t *testing.T) {
	for _, target := range []float64{1.0, 1.5, 2.2} {
		posts := GeneratePosts(PostStreamConfig{Duration: 2000, RatePerSec: 1, NumLabels: 5, Overlap: target, Seed: 8})
		if len(posts) < 1500 {
			t.Fatalf("posts = %d", len(posts))
		}
		pairs := 0
		for _, p := range posts {
			if len(p.Labels) == 0 {
				t.Fatal("post without labels")
			}
			pairs += len(p.Labels)
		}
		got := float64(pairs) / float64(len(posts))
		if math.Abs(got-target) > 0.25 {
			t.Errorf("overlap = %.3f, want ≈ %.1f", got, target)
		}
	}
}

func TestGeneratePostsOrderedAndLabeled(t *testing.T) {
	posts := GeneratePosts(PostStreamConfig{Duration: 300, RatePerSec: 2, NumLabels: 3, Seed: 9})
	for i, p := range posts {
		if i > 0 && p.Value < posts[i-1].Value {
			t.Fatal("posts out of order")
		}
		for j := 1; j < len(p.Labels); j++ {
			if p.Labels[j] <= p.Labels[j-1] {
				t.Fatal("labels not sorted/deduplicated")
			}
		}
	}
}

func TestGeneratePostsDeterministic(t *testing.T) {
	a := GeneratePosts(PostStreamConfig{Duration: 100, RatePerSec: 2, NumLabels: 3, Seed: 10})
	b := GeneratePosts(PostStreamConfig{Duration: 100, RatePerSec: 2, NumLabels: 3, Seed: 10})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || len(a[i].Labels) != len(b[i].Labels) {
			t.Fatal("same seed generated different streams")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mean := range []float64{0.5, 3, 50} {
		total := 0
		n := 20000
		for i := 0; i < n; i++ {
			total += poisson(rng, mean)
		}
		got := float64(total) / float64(n)
		if math.Abs(got-mean) > mean*0.1+0.05 {
			t.Errorf("poisson(%v) empirical mean %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("poisson of nonpositive mean should be 0")
	}
}

func TestVocabularyDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	words := vocabulary(rng, 500)
	seen := map[string]bool{}
	for _, w := range words {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if w == "" {
			t.Fatal("empty word")
		}
	}
}
