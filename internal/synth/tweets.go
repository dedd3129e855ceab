package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mqdp/internal/sentiment"
)

// Tweet is one synthetic stream post.
type Tweet struct {
	ID   int64
	Time float64 // seconds since stream start
	Text string
	// Topics are the planted topic indexes the tweet draws from (ground
	// truth; the matcher rediscovers them through keywords).
	Topics []int
	// Dup marks an injected near-duplicate (ground truth for the SimHash
	// filter; see StreamConfig.DupRatio).
	Dup bool
}

// StreamConfig shapes the synthetic tweet stream standing in for the
// paper's 24-hour, ~4.3M-tweet 1% Twitter sample. The default rate is
// scaled down ~10× (≈ 5.8 posts/s ≈ 500k/day); every experiment that
// depends on absolute volume documents this scaling in EXPERIMENTS.md.
type StreamConfig struct {
	Duration float64 // seconds; default 86400 (24h)
	// RatePerSec is the mean arrival rate; default 5.8.
	RatePerSec float64
	// TopicRatio is the fraction of tweets that are about planted topics
	// (the rest are background chatter). Default 0.35.
	TopicRatio float64
	// MultiTopicProb is the chance a topical tweet covers a second topic.
	// Default 0.25.
	MultiTopicProb float64
	// DupRatio is the fraction of tweets that are near-duplicates of a
	// recent tweet (retweets/quotes), exercising the SimHash filter.
	// Default 0.
	DupRatio float64
	// Diurnal enables the day/night rate curve plus random bursts.
	Diurnal bool
	Seed    int64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Duration <= 0 {
		c.Duration = 86400
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 5.8
	}
	if c.TopicRatio <= 0 {
		c.TopicRatio = 0.35
	}
	if c.MultiTopicProb < 0 {
		c.MultiTopicProb = 0
	} else if c.MultiTopicProb == 0 {
		c.MultiTopicProb = 0.25
	}
	return c
}

// burst is a transient rate multiplier (a breaking-news spike).
type burst struct {
	start, length float64
	factor        float64
}

// TweetStream generates the stream in time order.
func TweetStream(w *World, cfg StreamConfig) []Tweet {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	topicPop := NewZipf(len(w.Topics), 0.9)

	var bursts []burst
	if c.Diurnal {
		n := int(c.Duration/21600) + 1 // ~one burst per 6 hours
		for i := 0; i < n; i++ {
			bursts = append(bursts, burst{
				start:  rng.Float64() * c.Duration,
				length: 300 + rng.Float64()*1500,
				factor: 2 + rng.Float64()*3,
			})
		}
	}
	rate := func(t float64) float64 {
		r := c.RatePerSec
		if c.Diurnal {
			// Trough at ~4am, peak at ~4pm for a stream starting at midnight.
			r *= 1 + 0.6*math.Sin(2*math.Pi*(t/86400)-2.2)
			for _, b := range bursts {
				if t >= b.start && t < b.start+b.length {
					r *= b.factor
				}
			}
		}
		if r < 0.01*c.RatePerSec {
			r = 0.01 * c.RatePerSec
		}
		return r
	}

	var tweets []Tweet
	var recent []Tweet // ring of recent tweets for near-duplicates
	id := int64(0)
	for sec := 0.0; sec < c.Duration; sec++ {
		n := poisson(rng, rate(sec))
		for k := 0; k < n; k++ {
			t := sec + rng.Float64()
			if t >= c.Duration {
				t = c.Duration - 1e-6
			}
			var tw Tweet
			if c.DupRatio > 0 && len(recent) > 8 && rng.Float64() < c.DupRatio {
				src := recent[rng.Intn(len(recent))]
				tw = Tweet{ID: id, Time: t, Text: mutate(rng, src.Text), Topics: append([]int(nil), src.Topics...), Dup: true}
			} else {
				tw = compose(w, rng, topicPop, id, t, c)
			}
			id++
			tweets = append(tweets, tw)
			recent = append(recent, tw)
			if len(recent) > 256 {
				recent = recent[1:]
			}
		}
	}
	// Arrival jitter within a second can reorder; fix with a stable sort.
	sortTweets(tweets)
	return tweets
}

// compose writes one original tweet.
func compose(w *World, rng *rand.Rand, topicPop *Zipf, id int64, t float64, c StreamConfig) Tweet {
	var topics []int
	if rng.Float64() < c.TopicRatio {
		primary := topicPop.Sample(rng)
		topics = []int{primary}
		if rng.Float64() < c.MultiTopicProb {
			var second int
			if rng.Float64() < 0.7 {
				peers := w.ByBroad[w.Topics[primary].Broad]
				second = peers[rng.Intn(len(peers))]
			} else {
				second = topicPop.Sample(rng)
			}
			if second != primary {
				topics = append(topics, second)
			}
		}
	}
	n := 8 + rng.Intn(9)
	words := make([]string, 0, n+1)
	for len(words) < n {
		switch {
		case len(topics) > 0 && rng.Float64() < 0.45:
			tp := w.Topics[topics[rng.Intn(len(topics))]]
			k := int(float64(len(tp.Keywords)) * rng.Float64() * rng.Float64())
			words = append(words, tp.Keywords[k])
		case rng.Float64() < 0.12: // sentiment-bearing word
			if rng.Float64() < 0.5 {
				pos := sentiment.PositiveWords(0.3)
				words = append(words, pos[rng.Intn(len(pos))])
			} else {
				neg := sentiment.NegativeWords(-0.3)
				words = append(words, neg[rng.Intn(len(neg))])
			}
		default:
			words = append(words, w.Background[rng.Intn(len(w.Background))])
		}
	}
	if len(topics) > 0 && rng.Float64() < 0.3 {
		words = append(words, "#"+strings.ReplaceAll(w.Topics[topics[0]].Name, "-", ""))
	}
	return Tweet{ID: id, Time: t, Text: strings.Join(words, " "), Topics: topics}
}

// mutate produces a near-duplicate: an RT prefix, a via-suffix, or a small
// word swap, the kinds of redundancy SimHash is meant to catch.
func mutate(rng *rand.Rand, text string) string {
	switch rng.Intn(4) {
	case 0:
		return text // plain retweet: identical text
	case 1:
		return "rt " + text
	case 2:
		return text + fmt.Sprintf(" via @user%d", rng.Intn(5000))
	default:
		words := strings.Fields(text)
		if len(words) > 2 {
			i := rng.Intn(len(words))
			words[i] = word(rng)
		}
		return strings.Join(words, " ")
	}
}

// poisson draws from Poisson(mean) by inversion (mean is small per second).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation for high-rate bursts.
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// sortTweets sorts by time, then ID.
func sortTweets(tweets []Tweet) {
	sort.Slice(tweets, func(i, j int) bool {
		if tweets[i].Time != tweets[j].Time {
			return tweets[i].Time < tweets[j].Time
		}
		return tweets[i].ID < tweets[j].ID
	})
}
