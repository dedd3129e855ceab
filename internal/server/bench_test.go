package server

import (
	"context"
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
				s := newServer(b, Config{})
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

// BenchmarkIngestFanout prices a post against the number of routed
// candidates, which the ingest goroutine feeds one after another: the
// per-candidate price is the slope. Every candidate matches, as in the
// bench workloads, and each runs an Instant processor.
func BenchmarkIngestFanout(b *testing.B) {
	for _, cands := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("cands=%d", cands), func(b *testing.B) {
			s := newServer(b, Config{})
			for i := 0; i < cands; i++ {
				if _, err := s.Subscribe(SubscriptionConfig{
					Topics: []match.Topic{{
						Name:     fmt.Sprintf("t%d", i),
						Keywords: []match.Keyword{{Text: "obama", Weight: 1}},
					}},
					Lambda:    30,
					Algorithm: "instant",
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ingestPost(s, Post{ID: int64(i + 1), Time: float64(i), Text: "obama speaks to the senate tonight"})
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
// one observability mode. Off→Disabled prices the metrics layer (registry
// wired, the per-batch clock pair and histograms live, no tracer). With a
// tracer wired each call runs under its own root span, as an HTTP request
// does, so Disabled→Enabled prices the span bookkeeping with tail-based
// retention; without one the root is nil and tracing costs only the nil
// checks.
func benchIngestObs(b *testing.B, reg *obs.Registry) {
	world := synth.NewWorld(synth.WorldConfig{Seed: 1})
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 600, RatePerSec: 4, Seed: 2})
	s := newServer(b, Config{Obs: reg})
	tracer := reg.Tracer()
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
		root := tracer.StartTrace("bench.ingest")
		ctx := obs.ContextWithSpan(context.Background(), root)
		_, _, _ = s.IngestBatch(ctx, []Post{{ID: int64(i), Time: tw.Time + wrap, Text: tw.Text}}, "")
		root.End()
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
