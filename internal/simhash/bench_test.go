package simhash

import (
	"fmt"
	"testing"

	"mqdp/internal/synth"
	"mqdp/internal/textutil"
)

// benchTexts is a synthetic tweet stream with 5% injected near-duplicates,
// long enough that the 8192-entry window wraps.
func benchTexts() []string {
	w := synth.NewWorld(synth.WorldConfig{Seed: 1})
	tweets := synth.TweetStream(w, synth.StreamConfig{Duration: 3600, RatePerSec: 5.8, DupRatio: 0.05, Seed: 1})
	texts := make([]string, len(tweets))
	for i, tw := range tweets {
		texts[i] = tw.Text
	}
	return texts
}

var benchParams = []struct{ k, window int }{{10, 8192}, {3, 8192}}

// BenchmarkDeduperOffer is the dedup stage as a caller holding only text
// pays for it: tokenise, fingerprint, look up, remember.
func BenchmarkDeduperOffer(b *testing.B) {
	texts := benchTexts()
	for _, p := range benchParams {
		b.Run(fmt.Sprintf("k=%d/window=%d", p.k, p.window), func(b *testing.B) {
			d := NewDeduper(p.k, p.window)
			for _, text := range texts { // fill the window
				d.Offer(text)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Offer(texts[i%len(texts)])
			}
		})
	}
}

// BenchmarkDeduperOfferWords is the stage as the server pays for it, the
// words having been tokenised for routing anyway.
func BenchmarkDeduperOfferWords(b *testing.B) {
	texts := benchTexts()
	words := make([][]string, len(texts))
	for i, text := range texts {
		words[i] = textutil.Words(text)
	}
	for _, p := range benchParams {
		b.Run(fmt.Sprintf("k=%d/window=%d", p.k, p.window), func(b *testing.B) {
			d := NewDeduper(p.k, p.window)
			for _, w := range words {
				d.OfferWords(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.OfferWords(words[i%len(words)])
			}
		})
	}
}
