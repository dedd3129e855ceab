package main

import (
	"math"
	"math/bits"
	"math/rand"

	"mqdp/internal/match"
	"mqdp/internal/textutil"
)

// The stream's topic popularity is Zipf(0.9) and topics of one broad topic
// share anchor keywords, so the share of posts a §7.1 profile matches swings
// fourfold with the broad topic it happens to draw, and with it every
// per-post cost the benchmark measures. To keep one workload the same
// workload on every seed, profiles are still drawn as in §7.1 from the
// seeded source, but single profiles are redrawn until the population's
// measured share of the run's own posts reaches the workload's frozen target.

// sample records, for a spread of the run's posts, which keywords occur in
// which post, as one bitset per keyword.
type sample struct {
	n     int
	words int
	bits  map[string][]uint64
}

const sampleSize = 1 << 14

func newSample(in *inputs) *sample {
	s := &sample{words: sampleSize / 64, bits: map[string][]uint64{}}
	for _, t := range in.world.Topics {
		for _, kw := range t.Keywords {
			if s.bits[kw] == nil {
				s.bits[kw] = make([]uint64, s.words)
			}
		}
	}
	stride := max(1, len(in.posts)/sampleSize)
	var buf []string
	for i := 0; i < len(in.posts) && s.n < sampleSize; i += stride {
		buf = textutil.AppendWords(buf[:0], in.posts[i].Text)
		for _, w := range buf {
			if b := s.bits[w]; b != nil {
				b[s.n/64] |= 1 << (s.n % 64)
			}
		}
		s.n++
	}
	return s
}

// share is the fraction of sampled posts that hold a keyword of topics.
func (s *sample) share(topics []match.Topic) float64 {
	acc := make([]uint64, s.words)
	for _, t := range topics {
		for _, kw := range t.Keywords {
			for i, b := range s.bits[kw.Text] {
				acc[i] |= b
			}
		}
	}
	n := 0
	for _, b := range acc {
		n += bits.OnesCount64(b)
	}
	return float64(n) / float64(s.n)
}

// balanceTol is how close to its target a population's summed share is
// brought; the sentinel alone, being one draw, gets sentinelTol.
const (
	balanceTol  = 0.003
	sentinelTol = 0.03
)

// drawProfiles fills in.subs: the sentinel, the other wide profiles, then
// the narrow ones, each group balanced to its target share.
func (in *inputs) drawProfiles(rng *rand.Rand, narrow int) {
	sp := in.spec
	s := newSample(in)
	wide := func(i int) subReq {
		size := sp.topics
		if i == 0 && sp.sentinelTopics > 0 {
			size = sp.sentinelTopics
		}
		return subReq{
			Topics:    in.world.MatchTopics(in.world.SampleLabelSet(rng, size)),
			Lambda:    sp.lambda,
			Tau:       sp.tau,
			Algorithm: sp.algos[i%len(sp.algos)],
		}
	}
	sentinel := wide(0)
	for try := 0; try < 10000 && sp.sentinelShare > 0 && math.Abs(s.share(sentinel.Topics)-sp.sentinelShare) > sentinelTol*sp.sentinelShare; try++ {
		sentinel = wide(0)
	}
	in.subs = append(in.subs, sentinel)
	for i := 1; i < sp.profiles; i++ {
		in.subs = append(in.subs, wide(i))
	}
	in.balance(rng, s, 1, sp.profiles, sp.wideMatches, func(i int) subReq { return wide(i) })
	for i := 0; i < narrow; i++ {
		in.subs = append(in.subs, in.narrowProfile(rng))
	}
	// The narrow target is per profile, so that a smaller scale keeps it.
	in.balance(rng, s, sp.profiles, sp.profiles+narrow, sp.narrowMatches*float64(narrow)/float64(max(1, sp.narrow)), func(int) subReq { return in.narrowProfile(rng) })
}

// balance redraws random members of in.subs[lo:hi], keeping a redraw only
// when it brings the group's summed share closer to target, until the sum is
// within balanceTol of it. A zero target leaves the group as drawn.
func (in *inputs) balance(rng *rand.Rand, s *sample, lo, hi int, target float64, draw func(i int) subReq) {
	if target == 0 || hi <= lo {
		return
	}
	shares := make([]float64, hi-lo)
	sum := 0.0
	for i := range shares {
		shares[i] = s.share(in.subs[lo+i].Topics)
		sum += shares[i]
	}
	for try := 0; try < 100000 && math.Abs(sum-target) > balanceTol*target; try++ {
		i := rng.Intn(hi - lo)
		c := draw(lo + i)
		w := s.share(c.Topics)
		if math.Abs(sum-shares[i]+w-target) < math.Abs(sum-target) {
			sum += w - shares[i]
			shares[i] = w
			in.subs[lo+i] = c
		}
	}
}

// narrowProfile is one topic trimmed to two of its keywords.
func (in *inputs) narrowProfile(rng *rand.Rand) subReq {
	t := in.world.MatchTopics(in.world.SampleLabelSet(rng, 1))[0]
	i := rng.Intn(len(t.Keywords))
	j := (i + 1 + rng.Intn(len(t.Keywords)-1)) % len(t.Keywords)
	t.Keywords = []match.Keyword{t.Keywords[i], t.Keywords[j]}
	return subReq{Topics: []match.Topic{t}, Lambda: in.spec.lambda, Tau: in.spec.tau, Algorithm: in.spec.algos[0]}
}
