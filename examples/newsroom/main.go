// Newsroom: the paper's journalist scenario (§1), end to end.
//
//	go run ./examples/newsroom
//
// A journalist follows several politics topics. The pipeline mirrors the
// paper's Figure 1 architecture: a synthetic news corpus trains LDA, whose
// topics become the journalist's queries; a synthetic tweet stream is
// indexed in a real-time inverted index; matching posts are near-duplicate
// filtered with SimHash; and the survivors are diversified over time with
// GreedySC into a short digest.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mqdp"
	"mqdp/internal/index"
	"mqdp/internal/lda"
	"mqdp/internal/match"
	"mqdp/internal/simhash"
	"mqdp/internal/synth"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the newsroom pipeline's report to w.
func run(w io.Writer) error {
	// 1. Plant a topic world and train LDA on its news corpus (§7.1's
	//    query-generation pipeline).
	world := synth.NewWorld(synth.WorldConfig{BroadTopics: 4, TopicsPerBroad: 4, KeywordsPerTopic: 25, Seed: 1})
	corpus := lda.NewCorpus()
	for _, a := range synth.NewsCorpus(world, synth.NewsConfig{Articles: 800, WordsPerDoc: 80, Seed: 2}) {
		corpus.AddText(a.Text)
	}
	model, err := lda.Train(corpus, lda.Options{Topics: len(world.Topics), Iterations: 80, Seed: 3})
	if err != nil {
		return err
	}

	// 2. The journalist's profile: three LDA topics as queries.
	var topics []match.Topic
	for k := 0; k < 3; k++ {
		var kws []match.Keyword
		for _, tw := range model.TopKeywords(k, 25) {
			kws = append(kws, match.Keyword{Text: tw.Word, Weight: tw.Weight})
		}
		topics = append(topics, match.Topic{Name: fmt.Sprintf("topic-%d", k), Keywords: kws})
		head := topics[k].Keywords
		if len(head) > 6 {
			head = head[:6]
		}
		fmt.Fprintf(w, "query %d:", k)
		for _, kw := range head {
			fmt.Fprintf(w, " %s", kw.Text)
		}
		fmt.Fprintln(w)
	}
	matcher, err := match.NewMatcher(topics)
	if err != nil {
		return err
	}

	// 3. A two-hour tweet stream (with retweet noise) goes into the
	//    real-time index.
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 7200, RatePerSec: 4, DupRatio: 0.15, Seed: 4})
	ix := index.New()
	for _, tw := range tweets {
		if err := ix.Add(index.Doc{ID: tw.ID, Time: tw.Time, Text: tw.Text}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nindexed %d tweets (%d terms)\n", ix.Len(), ix.Terms())

	// 4. Retrieve matching posts, drop near-duplicates, diversify.
	matched := ix.Match(matcher, match.ByTime, 0, 7200)
	dedup := simhash.NewDeduper(12, 4096)
	var posts []mqdp.Post
	for _, p := range matched {
		if dedup.Offer(ix.Doc(findPos(ix, p.ID)).Text) {
			posts = append(posts, p)
		}
	}
	seen, dropped := dedup.Stats()
	fmt.Fprintf(w, "matched %d posts; SimHash dropped %d of %d near-duplicates\n", len(matched), dropped, seen)

	inst, err := mqdp.NewInstance(posts, matcher.NumTopics())
	if err != nil {
		return err
	}
	cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: 900, Algorithm: mqdp.GreedySC}) // λ = 15 minutes
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndigest: %d representative posts (λ = 15 min) out of %d\n\n", cover.Size(), inst.Len())
	for _, i := range cover.Selected {
		p := inst.Post(i)
		text := ix.Doc(findPos(ix, p.ID)).Text
		if len(text) > 64 {
			text = text[:64] + "…"
		}
		fmt.Fprintf(w, "  [%5.0fs] labels %v  %s\n", p.Value, p.Labels, text)
	}
	return nil
}

// findPos locates a document position by ID. The synthetic stream assigns
// consecutive ids in time order, so this is a direct probe with a fallback
// scan for safety.
func findPos(ix *index.Index, id int64) int32 {
	if int(id) < ix.Len() && ix.Doc(int32(id)).ID == id {
		return int32(id)
	}
	for pos := int32(0); int(pos) < ix.Len(); pos++ {
		if ix.Doc(pos).ID == id {
			return pos
		}
	}
	panic("document not found")
}
