package main

import (
	"encoding/json"
	"math/rand"
	"sync"

	"mqdp/internal/match"
	"mqdp/internal/synth"
	"mqdp/internal/wire"
)

// spec is one workload: the subscription population, the algorithm and its
// λ/τ, the wire format and batch size, and the two frozen rates. The rates
// are constants measured once on the seed commit (see README.md): pacedRate
// is ≈ 50% of the measured saturation throughput, satRate sizes the
// closed-loop phase so it lasts about as long as the paced one.
type spec struct {
	name string
	why  string

	topicsPerBroad int // world size: 10 broad topics × this many topics
	profiles       int // wide profiles; the first one is the sentinel (id 1)
	topics         int // topics per wide profile
	sentinelTopics int // topics of the sentinel, when it differs
	narrow         int // 1-topic profiles trimmed to 2 keywords
	algos          []string
	lambda, tau    float64 // event seconds

	topicRatio float64
	eventRate  float64 // posts per event second: post i carries time i/eventRate
	binary     bool
	batch      int
	durable    bool
	churnEvery int // every churnEvery-th producer request is a subscribe, the next its DELETE; 0 = none

	// Shares of the stream the profile population is balanced to, so that a
	// workload is the same workload on every seed (see drawProfiles): the
	// share of posts the sentinel matches, and the matches per post summed
	// over the other wide profiles and over the narrow ones.
	sentinelShare, wideMatches, narrowMatches float64

	pacedRate float64 // posts/s offered in the open-loop phase
	satRate   float64 // posts/s used to size the closed-loop phase

	setups int // server set-ups per full-scale run; setup_s reports their median
}

var specs = []*spec{
	{
		name: "dense_instant",
		why:  "32 wide Instant profiles, ~8 matches per post, JSON batches of 64: decode, match, Instant, deliver and SSE do the work; route and wal almost none",

		topicsPerBroad: 8, profiles: 32, topics: 16,
		algos: []string{"instant"}, lambda: 60,
		sentinelShare: 0.33, wideMatches: 7.67,
		topicRatio: 0.9, eventRate: 3, batch: 64,
		pacedRate: 6400, satRate: 12800, setups: 3,
	},
	{
		name: "sparse_fanout",
		why:  "sentinel + 10,000 two-keyword profiles, ~50 routing candidates per post, binary batches of 64, subscribe/DELETE churn: route, fan-out and match dominate",

		topicsPerBroad: 8, profiles: 1, topics: 16, sentinelTopics: 80, narrow: 10000,
		algos: []string{"instant"}, lambda: 60,
		narrowMatches: 49.1,
		topicRatio:    0.9, eventRate: 8, binary: true, batch: 64, churnEvery: 32,
		pacedRate: 2800, satRate: 5600, setups: 1,
	},
	{
		name: "window_scan",
		why:  "16 profiles on StreamScan+ and StreamGreedySC with lambda=300 tau=30: window upkeep, gain counts and deadline firing in stream.Process dominate",

		topicsPerBroad: 8, profiles: 16, topics: 8, sentinelTopics: 80,
		algos: []string{"streamscan+", "streamgreedy"}, lambda: 300, tau: 30,
		wideMatches: 1.4,
		topicRatio:  0.9, eventRate: 6, binary: true, batch: 64,
		pacedRate: 12500, satRate: 25000, setups: 3,
	},
	{
		name: "durable_batch8",
		why:  "dense_instant's profiles behind -data-dir -fsync batch, binary batches of 8: one WAL pair and one fsync per 8 posts, then kill -9 and replay of the same log",

		topicsPerBroad: 8, profiles: 32, topics: 16,
		algos: []string{"instant"}, lambda: 60,
		sentinelShare: 0.33, wideMatches: 7.67,
		topicRatio: 0.9, eventRate: 0.75, binary: true, batch: 8, durable: true,
		pacedRate: 2350, satRate: 4700, setups: 3,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Scale picks the size of a run. full is what BENCHMARK.json gates; smoke
// keeps every code path but shrinks populations and drops the sample-count
// assertions so the package test finishes in seconds.
type scale struct {
	name       string
	narrowDiv  int     // narrow profile count is divided by this
	warmPosts  int     // closed-loop, untimed
	rateFactor float64 // applied to both frozen rates
}

var (
	scaleFull  = scale{name: "full", narrowDiv: 1, warmPosts: 4096, rateFactor: 1}
	scaleSmoke = scale{name: "smoke", narrowDiv: 25, warmPosts: 512, rateFactor: 0.5}
)

// subReq is the POST /subscriptions body in the server's documented shape.
type subReq struct {
	Topics    []match.Topic `json:"topics"`
	Lambda    float64       `json:"lambda"`
	Tau       float64       `json:"tau"`
	Algorithm string        `json:"algorithm"`
}

// jsonPost is the documented JSON shape of one /ingest post.
type jsonPost struct {
	ID   int64   `json:"id"`
	Time float64 `json:"time"`
	Text string  `json:"text"`
}

// inputs is everything a run sends, generated from the seed alone and
// encoded before the server starts.
type inputs struct {
	spec  *spec
	seed  int64
	world *synth.World

	subs      []subReq // subs[i] gets subscription id i+1
	subBodies [][]byte
	churn     [][]byte // fresh narrow profiles for the churn requests

	posts  []wire.StreamPost
	bodies [][]byte // one encoded /ingest body per batch
	// Batch index ranges of the three phases: [0,warm) [warm,warm+paced) [..,len(bodies)).
	warm, paced, sat int
}

func (in *inputs) contentType() string {
	if in.spec.binary {
		return wire.ContentTypeBinary
	}
	return wire.ContentTypeJSON
}

// churnAfter returns the fresh profile whose subscribe/DELETE pair follows
// ingest batch k, or nil: of every churnEvery producer requests the last two
// are such a pair.
func (in *inputs) churnAfter(k int) []byte {
	every := in.spec.churnEvery - 2
	if in.spec.churnEvery == 0 || (k+1)%every != 0 {
		return nil
	}
	return in.churn[(k+1)/every-1]
}

func (in *inputs) batchPosts(k int) []wire.StreamPost {
	lo := k * in.spec.batch
	return in.posts[lo : lo+in.spec.batch]
}

// pacedShare of the measured seconds is the open-loop phase. It gets the
// larger part because its tail latencies need the samples, and at half the
// rate it costs the fewer posts.
const pacedShare = 0.625

// generate builds the inputs of one run. seconds is the measured time:
// pacedShare of it is the paced phase, and the saturation phase gets the
// post count that satRate sends in the rest.
func generate(sp *spec, sc scale, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed}
	in.world = synth.NewWorld(synth.WorldConfig{TopicsPerBroad: sp.topicsPerBroad, Seed: seed})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	in.warm = ceilDiv(sc.warmPosts, sp.batch)
	in.paced = max(1, int(sp.pacedRate*sc.rateFactor*seconds*pacedShare)/sp.batch)
	in.sat = max(1, int(sp.satRate*sc.rateFactor*seconds*(1-pacedShare))/sp.batch)
	nBatches := in.warm + in.paced + in.sat
	in.posts = tweets(in.world, sp, seed, nBatches*sp.batch)
	for i := range in.posts {
		in.posts[i].ID = int64(i + 1)
		in.posts[i].Time = float64(i) / sp.eventRate
	}

	in.drawProfiles(rng, sp.narrow/sc.narrowDiv)
	for _, s := range in.subs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		in.subBodies = append(in.subBodies, b)
	}
	if sp.churnEvery > 0 {
		for i := 0; i < nBatches/(sp.churnEvery-2); i++ {
			b, err := json.Marshal(in.narrowProfile(rng))
			if err != nil {
				return nil, err
			}
			in.churn = append(in.churn, b)
		}
	}
	in.bodies = make([][]byte, nBatches)
	for k := range in.bodies {
		body, err := encodeBatch(in.batchPosts(k), sp.binary)
		if err != nil {
			return nil, err
		}
		in.bodies[k] = body
	}
	return in, nil
}

// genChunks is fixed, not the CPU count, so a seed gives the same posts on
// any machine; the chunks are generated concurrently because
// synth.TweetStream costs more per post than the server spends ingesting it.
const genChunks = 4

func tweets(w *synth.World, sp *spec, seed int64, n int) []wire.StreamPost {
	per := ceilDiv(n, genChunks)
	chunks := make([][]synth.Tweet, genChunks)
	var wg sync.WaitGroup
	for c := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const rate = 1000
			for try := int64(0); len(chunks[c]) < per; try++ {
				chunks[c] = append(chunks[c], synth.TweetStream(w, synth.StreamConfig{
					Duration:   float64(per-len(chunks[c]))*1.03/rate + 2,
					RatePerSec: rate,
					TopicRatio: sp.topicRatio,
					DupRatio:   0.05,
					Seed:       seed*genChunks*64 + int64(c)*64 + try,
				})...)
			}
		}()
	}
	wg.Wait()
	posts := make([]wire.StreamPost, 0, n)
	for _, ch := range chunks {
		for _, tw := range ch[:per] {
			if len(posts) < n {
				posts = append(posts, wire.StreamPost{Text: tw.Text})
			}
		}
	}
	return posts
}

func encodeBatch(posts []wire.StreamPost, binary bool) ([]byte, error) {
	if binary {
		enc := wire.GetEncoder()
		defer wire.PutEncoder(enc)
		// The same threshold the repo's own client uses, so batches above
		// 4 KiB travel DEFLATE-compressed.
		return append([]byte(nil), enc.EncodeStreamPosts(posts, wire.DefaultCompressThreshold)...), nil
	}
	jp := make([]jsonPost, len(posts))
	for i, p := range posts {
		jp[i] = jsonPost(p)
	}
	return json.Marshal(jp)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
