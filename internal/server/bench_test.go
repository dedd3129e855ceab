package server

import (
	"fmt"
	"testing"
	"time"

	"mqdp/internal/match"
	"mqdp/internal/obs"
	"mqdp/internal/synth"
)

// BenchmarkIngestManySubscriptions measures per-post ingest cost with many
// live profiles — the paper's §7.4 scalability concern ("executed for
// millions of users") at bench scale.
func BenchmarkIngestManySubscriptions(b *testing.B) {
	for _, subs := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			world := synth.NewWorld(synth.WorldConfig{Seed: 1})
			tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 4, Seed: 2})
			s := newServer(b, Config{})
			rng := newRand(3)
			for i := 0; i < subs; i++ {
				topicIdx := world.SampleLabelSet(rng, 3)
				if _, err := s.Subscribe(SubscriptionConfig{
					Topics: world.MatchTopics(topicIdx),
					Lambda: 120,
					Tau:    30,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tw := tweets[i%len(tweets)]
				// Replay with a strictly advancing clock to satisfy the
				// order check across wraps.
				wrap := float64(i/len(tweets)) * 600
				_ = ingestPost(s, Post{ID: int64(i), Time: tw.Time + wrap, Text: tw.Text})
			}
		})
	}
}

// BenchmarkIngestSparseMatch measures per-post ingest cost on the workload
// the inverted routing index exists for: many single-keyword subscriptions
// of which only a small fraction matches any given post: the routed fan-out
// touches only the candidate postings. bench/'s sparse_fanout workload
// measures the same shape end to end (route.* in bench/README.md).
func BenchmarkIngestSparseMatch(b *testing.B) {
	const tokensPerPost = 10
	for _, subs := range []int{100, 1000, 10000} {
		for _, rate := range []float64{0.01, 0.05} {
			keywords := int(tokensPerPost/rate + 0.5)
			b.Run(fmt.Sprintf("subs=%d/rate=%g/routed", subs, rate), func(b *testing.B) {
				s := newServer(b, Config{Parallelism: 1})
				for i := 0; i < subs; i++ {
					if _, err := s.Subscribe(SubscriptionConfig{
						Topics: []match.Topic{{
							Name:     fmt.Sprintf("t%d", i),
							Keywords: []match.Keyword{{Text: fmt.Sprintf("kw%d", i%keywords), Weight: 1}},
						}},
						Lambda:    3600,
						Algorithm: "instant",
					}); err != nil {
						b.Fatal(err)
					}
				}
				// Rotate a tokensPerPost-keyword window through the
				// universe so each post matches exactly rate×subs profiles.
				texts := make([]string, keywords)
				for i := range texts {
					var sb []byte
					start := (i * tokensPerPost) % keywords
					for j := 0; j < tokensPerPost; j++ {
						sb = fmt.Appendf(sb, "kw%d ", (start+j)%keywords)
					}
					texts[i] = string(fmt.Append(sb, "plus filler chatter"))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = ingestPost(s, Post{ID: int64(i + 1), Time: float64(i), Text: texts[i%len(texts)]})
				}
			})
		}
	}
}

// BenchmarkIngestWorkers measures how per-post ingest cost scales with the
// fan-out worker count at a fixed, production-shaped subscription load —
// the tentpole claim: O(|subs|/workers) per post instead of O(|subs|).
func BenchmarkIngestWorkers(b *testing.B) {
	const subs = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("subs=%d/workers=%d", subs, workers), func(b *testing.B) {
			world := synth.NewWorld(synth.WorldConfig{Seed: 1})
			tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 4, Seed: 2})
			s := newServer(b, Config{Parallelism: workers})
			rng := newRand(3)
			for i := 0; i < subs; i++ {
				topicIdx := world.SampleLabelSet(rng, 3)
				if _, err := s.Subscribe(SubscriptionConfig{
					Topics: world.MatchTopics(topicIdx),
					Lambda: 120,
					Tau:    30,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tw := tweets[i%len(tweets)]
				wrap := float64(i/len(tweets)) * 600
				_ = ingestPost(s, Post{ID: int64(i), Time: tw.Time + wrap, Text: tw.Text})
			}
		})
	}
}

// BenchmarkEmissionsPoll measures a tail poll against a full retained
// buffer. The cursor offset is computed in O(1) from the first retained
// Seq, so cost tracks the page size, not the 65,536-entry buffer.
func BenchmarkEmissionsPoll(b *testing.B) {
	s := newServer(b, Config{})
	id, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 0, Tau: 0, Algorithm: "instant"})
	if err != nil {
		b.Fatal(err)
	}
	// Synthesize a full buffer directly; ingesting 65k posts is setup noise.
	sub, _ := s.lookup(id)
	n := maxEmissionBuffer
	sub.emissions = make([]Emission, n)
	for i := 0; i < n; i++ {
		sub.emissions[i] = Emission{
			Seq: int64(i + 1), PostID: int64(i + 1), Time: float64(i),
			Text: "obama update", Topics: []string{"obama"}, EmitAt: float64(i),
		}
	}
	sub.nextSeq.Add(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es, err := s.Emissions(id, int64(n-10), 10)
		if err != nil || len(es) != 10 {
			b.Fatalf("poll = %d emissions, %v", len(es), err)
		}
	}
}

// benchIngestObs drives the standard ingest workload against a server in
// one observability mode. Off→Disabled prices the pre-existing metrics
// layer (registry wired, timers and histograms live, no tracer — the
// production default). Disabled→Enabled is the number this PR pins: with no
// tracer attached, tracing must cost only the nil check inside the already
// -loaded obs state, so Disabled stays where it was before spans existed,
// and Enabled prices full span bookkeeping with tail-based retention.
func benchIngestObs(b *testing.B, reg *obs.Registry) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 1})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 4, Seed: 2})
	s := newServer(b, Config{Parallelism: 1, Obs: reg})
	rng := newRand(3)
	for i := 0; i < 16; i++ {
		topicIdx := world.SampleLabelSet(rng, 3)
		if _, err := s.Subscribe(SubscriptionConfig{
			Topics: world.MatchTopics(topicIdx),
			Lambda: 120,
			Tau:    30,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw := tweets[i%len(tweets)]
		wrap := float64(i/len(tweets)) * 600
		_ = ingestPost(s, Post{ID: int64(i), Time: tw.Time + wrap, Text: tw.Text})
	}
}

func BenchmarkIngestTraceOff(b *testing.B) {
	benchIngestObs(b, nil)
}

func BenchmarkIngestTraceDisabled(b *testing.B) {
	benchIngestObs(b, obs.NewRegistry())
}

func BenchmarkIngestTraceEnabled(b *testing.B) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	tracer.SetRetention(100*time.Millisecond, 10)
	reg.SetTracer(tracer)
	benchIngestObs(b, reg)
}

func BenchmarkMatchOnly(b *testing.B) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 1})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 300, RatePerSec: 4, Seed: 2})
	rng := newRand(3)
	m, err := match.NewMatcher(world.MatchTopics(world.SampleLabelSet(rng, 5)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Match(tweets[i%len(tweets)].Text)
	}
}
