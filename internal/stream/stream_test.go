package stream

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mqdp/internal/core"
)

// mk builds a post with the given id, value and labels.
func mk(id int64, v float64, labels ...core.Label) core.Post {
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	return core.Post{ID: id, Value: v, Labels: labels}
}

// allProcessors builds one of each processor kind for a label space.
func allProcessors(t *testing.T, numLabels int, lambda, tau float64) []Processor {
	t.Helper()
	var ps []Processor
	for _, plus := range []bool{false, true} {
		sc, err := NewScan(numLabels, lambda, tau, plus)
		if err != nil {
			t.Fatalf("NewScan: %v", err)
		}
		gr, err := NewGreedy(numLabels, lambda, tau, plus)
		if err != nil {
			t.Fatalf("NewGreedy: %v", err)
		}
		ps = append(ps, sc, gr)
	}
	inst, err := NewInstant(numLabels, lambda)
	if err != nil {
		t.Fatalf("NewInstant: %v", err)
	}
	return append(ps, inst)
}

// checkStream replays posts through p and asserts that the emissions form a
// λ-cover of the whole stream and that every emission respects the delay
// bound. It returns the emission count.
func checkStream(t *testing.T, posts []core.Post, numLabels int, lambda, tau float64, p Processor) int {
	t.Helper()
	es, err := Run(posts, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	in, err := core.NewInstance(posts, numLabels)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	// Map emissions back to instance indexes by ID.
	byID := make(map[int64]int)
	for i := 0; i < in.Len(); i++ {
		byID[in.Post(i).ID] = i
	}
	seen := make(map[int64]bool)
	var sel []int
	for _, e := range es {
		if seen[e.Post.ID] {
			t.Errorf("%s: post %d emitted twice", p.Name(), e.Post.ID)
		}
		seen[e.Post.ID] = true
		idx, ok := byID[e.Post.ID]
		if !ok {
			t.Fatalf("%s: emitted unknown post %d", p.Name(), e.Post.ID)
		}
		sel = append(sel, idx)
		if delay := e.EmitAt - e.Post.Value; delay < -1e-9 || delay > tau+1e-9 {
			t.Errorf("%s: post %d delay %v outside [0, τ=%v]", p.Name(), e.Post.ID, delay, tau)
		}
	}
	if err := in.VerifyCover(core.FixedLambda(lambda), sel); err != nil {
		t.Errorf("%s: emissions do not cover the stream: %v", p.Name(), err)
	}
	return len(es)
}

func TestProcessorsCoverRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		numLabels := 1 + rng.Intn(4)
		n := 1 + rng.Intn(60)
		posts := make([]core.Post, n)
		v := 0.0
		for i := range posts {
			v += rng.Float64() * 4
			var labels []core.Label
			for a := 0; a < numLabels; a++ {
				if rng.Intn(3) == 0 {
					labels = append(labels, core.Label(a))
				}
			}
			if len(labels) == 0 {
				labels = append(labels, core.Label(rng.Intn(numLabels)))
			}
			posts[i] = mk(int64(i), v, labels...)
		}
		lambda := 1 + rng.Float64()*6
		tau := rng.Float64() * 8
		for _, p := range allProcessors(t, numLabels, lambda, tau) {
			if _, ok := p.(*Instant); ok {
				checkStream(t, posts, numLabels, lambda, 0, p)
			} else {
				checkStream(t, posts, numLabels, lambda, tau, p)
			}
		}
	}
}

func TestStreamScanMatchesOfflineScanWhenTauAtLeastLambda(t *testing.T) {
	// §5.1: with τ ≥ λ StreamScan outputs exactly as offline Scan, hence
	// the same solution size.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		numLabels := 1 + rng.Intn(3)
		n := 1 + rng.Intn(50)
		posts := make([]core.Post, n)
		v := 0.0
		for i := range posts {
			v += rng.Float64() * 3
			labels := []core.Label{core.Label(rng.Intn(numLabels))}
			posts[i] = mk(int64(i), v, labels...)
		}
		lambda := 1 + rng.Float64()*5
		tau := lambda + rng.Float64()*5
		p, err := NewScan(numLabels, lambda, tau, false)
		if err != nil {
			t.Fatal(err)
		}
		es, err := Run(posts, p)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.NewInstance(posts, numLabels)
		if err != nil {
			t.Fatal(err)
		}
		offline := in.Scan(core.FixedLambda(lambda))
		if len(es) != offline.Size() {
			t.Fatalf("trial %d: StreamScan(τ=%v≥λ=%v) emitted %d, offline Scan %d",
				trial, tau, lambda, len(es), offline.Size())
		}
	}
}

func TestInstantTwoSBound(t *testing.T) {
	// Per label, Instant emits ≤ 2·optimal posts (§5.1); globally ≤ 2s·OPT.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		posts := make([]core.Post, n)
		v := 0.0
		for i := range posts {
			v += rng.Float64() * 3
			posts[i] = mk(int64(i), v, 0)
		}
		lambda := 1 + rng.Float64()*4
		p, err := NewInstant(1, lambda)
		if err != nil {
			t.Fatal(err)
		}
		es, err := Run(posts, p)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.NewInstance(posts, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) > 2*opt.Size() {
			t.Fatalf("trial %d: instant emitted %d > 2·OPT = %d", trial, len(es), 2*opt.Size())
		}
	}
}

func TestFigure5WorstCase(t *testing.T) {
	// Figure 5: single label, posts at 1..9 with λ = 2·spacing. The optimal
	// cover picks {2, 5, 8}-style centers (3 posts); Instant emits posts
	// 1, 4, 7 (spaced just over λ) — ratio approaching 2 needs the paper's
	// adversarial spacing; here we check Instant emits the greedy-from-left
	// selection and stays within the 2s bound.
	var posts []core.Post
	for i := 1; i <= 9; i++ {
		posts = append(posts, mk(int64(i), float64(i), 0))
	}
	lambda := 2.0
	p, _ := NewInstant(1, lambda)
	es, err := Run(posts, p)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int64{1, 4, 7} // each next emission is the first arrival > λ after the previous
	if len(es) != len(wantIDs) {
		t.Fatalf("instant emitted %d posts (%v), want %d", len(es), es, len(wantIDs))
	}
	for i, e := range es {
		if e.Post.ID != wantIDs[i] {
			t.Errorf("emission %d = post %d, want %d", i, e.Post.ID, wantIDs[i])
		}
	}
	in, _ := core.NewInstance(posts, 1)
	opt, err := in.OPT(lambda, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Size() != 2 { // posts 3 and 7 cover 1..9 with λ=2
		t.Errorf("OPT = %d, want 2", opt.Size())
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	for _, p := range allProcessors(t, 2, 1, 1) {
		if _, err := p.Process(mk(1, 5, 0)); err != nil {
			t.Fatalf("%s: first post rejected: %v", p.Name(), err)
		}
		if _, err := p.Process(mk(2, 4, 0)); err == nil {
			t.Errorf("%s accepted out-of-order post", p.Name())
		}
	}
}

func TestEqualTimestampsAccepted(t *testing.T) {
	posts := []core.Post{mk(1, 1, 0), mk(2, 1, 1), mk(3, 1, 0, 1)}
	for _, p := range allProcessors(t, 2, 1, 1) {
		tau := 1.0
		if _, ok := p.(*Instant); ok {
			tau = 0
		}
		checkStream(t, posts, 2, 1, tau, p)
	}
}

func TestScanDelayedEmission(t *testing.T) {
	// λ=10, τ=2: a lone post must be emitted at its timestamp+τ, not
	// held for the λ window.
	p, _ := NewScan(1, 10, 2, false)
	es, err := p.Process(mk(1, 0, 0))
	if err != nil || len(es) != 0 {
		t.Fatalf("unexpected immediate emission: %v %v", es, err)
	}
	es, err = p.Process(mk(2, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].Post.ID != 1 || es[0].EmitAt != 2 {
		t.Fatalf("emissions = %+v, want post 1 at time 2", es)
	}
	// Post 2 is covered by post 1 (distance 5 ≤ λ): nothing pending.
	if es = p.Flush(); len(es) != 0 {
		t.Errorf("flush emitted %+v, want none", es)
	}
}

func TestScanLambdaDeadlineDominates(t *testing.T) {
	// λ=2, τ=100: pending posts cannot wait past oldest+λ or the oldest
	// uncovered post would become uncoverable.
	p, _ := NewScan(1, 2, 100, false)
	mustProcess(t, p, mk(1, 0, 0))
	es := mustProcess(t, p, mk(2, 1.5, 0))
	if len(es) != 0 {
		t.Fatalf("premature emission %+v", es)
	}
	// At t=3 the deadline min(1.5+100, 0+2)=2 has passed: emit post 2.
	es = mustProcess(t, p, mk(3, 3, 0))
	if len(es) != 1 || es[0].Post.ID != 2 || es[0].EmitAt != 2 {
		t.Fatalf("emissions = %+v, want post 2 at time 2", es)
	}
}

func TestScanPlusSavesCrossLabelEmissions(t *testing.T) {
	// Post 3 carries both labels and is emitted for label 0; StreamScan+
	// clears label 1's backlog with it, while StreamScan separately emits
	// post 4 (label 1's latest uncovered) at label 1's own deadline.
	posts := []core.Post{
		mk(1, 0, 0),
		mk(2, 0.5, 1),
		mk(3, 1, 0, 1),
		mk(4, 1.2, 1),
	}
	lambda, tau := 2.0, 2.0
	plain, _ := NewScan(2, lambda, tau, false)
	plus, _ := NewScan(2, lambda, tau, true)
	esPlain, err := Run(posts, plain)
	if err != nil {
		t.Fatal(err)
	}
	esPlus, err := Run(posts, plus)
	if err != nil {
		t.Fatal(err)
	}
	if len(esPlus) > len(esPlain) {
		t.Errorf("StreamScan+ emitted %d > StreamScan %d", len(esPlus), len(esPlain))
	}
	if len(esPlus) != 1 {
		t.Errorf("StreamScan+ emitted %d posts (%+v), want 1 (post 3 serves both labels)", len(esPlus), esPlus)
	}
}

func TestScanPlusExactlyLambdaAfterClearedBacklog(t *testing.T) {
	// bench window_scan seed 28 in miniature (λ=300, τ=30, timestamps on
	// the k/6 grid): post 2 at 934/6 is emitted for label 0 and clears
	// label 1's backlog; post 3 at 2734/6 arrives exactly λ later. The
	// processor counts it covered, so the verifier must agree: 2734/6 −
	// 934/6 rounds to exactly 300, though 934/6 + 300 rounds below 2734/6.
	posts := []core.Post{
		mk(1, 900.0/6, 1),
		mk(2, 934.0/6, 0, 1),
		mk(3, 2734.0/6, 1),
	}
	p, _ := NewScan(2, 300, 30, true)
	if n := checkStream(t, posts, 2, 300, 30, p); n != 1 {
		t.Errorf("StreamScan+ emitted %d posts, want 1 (post 2 covers all three)", n)
	}
}

func TestGreedyWindowCoversBurst(t *testing.T) {
	// A burst of overlapping posts inside one τ window should be served by
	// few selections.
	var posts []core.Post
	for i := 0; i < 10; i++ {
		posts = append(posts, mk(int64(i), float64(i)*0.1, 0, 1))
	}
	p, _ := NewGreedy(2, 5, 2, false)
	es, err := Run(posts, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Errorf("greedy emitted %d posts for a single coverable burst, want 1", len(es))
	}
}

func TestGreedyArrivalCoveredByRoundsFirstPick(t *testing.T) {
	// λ=1.5, τ=3: the round at 3 picks post 2 (gain 3) before post 1
	// (gain 1), so emissions are not in value order. Post 5 at 3.2 is
	// 1.2 after post 2 and must count as covered: the round's latest
	// emission per label decides, not the last one made.
	posts := []core.Post{mk(1, 0, 0), mk(2, 2, 0), mk(3, 2.5, 0), mk(4, 2.9, 0), mk(5, 3.2, 0)}
	p, _ := NewGreedy(1, 1.5, 3, false)
	es, err := Run(posts, p)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, e := range es {
		ids = append(ids, e.Post.ID)
	}
	if want := []int64{2, 1}; !reflect.DeepEqual(ids, want) {
		t.Errorf("emitted posts %v, want %v", ids, want)
	}
}

func TestGreedyZeroTauDecidesImmediately(t *testing.T) {
	p, _ := NewGreedy(1, 2, 0, false)
	es := mustProcess(t, p, mk(1, 0, 0))
	if len(es) != 1 || es[0].EmitAt != 0 {
		t.Fatalf("τ=0 emission = %+v, want immediate", es)
	}
	// Within λ: covered, no emission.
	es = mustProcess(t, p, mk(2, 1, 0))
	if len(es) != 0 {
		t.Fatalf("covered post emitted: %+v", es)
	}
	// Beyond λ: emitted at once.
	es = mustProcess(t, p, mk(3, 5, 0))
	if len(es) != 1 || es[0].Post.ID != 3 {
		t.Fatalf("uncovered post not emitted: %+v", es)
	}
}

func TestGreedyPlusStopsEarly(t *testing.T) {
	// StreamGreedySC+ stops its round once the trigger post is covered, so
	// it can emit fewer (or different) posts per round than StreamGreedySC.
	// Both must still produce valid covers.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		posts := make([]core.Post, n)
		v := 0.0
		for i := range posts {
			v += rng.Float64() * 2
			labels := []core.Label{core.Label(rng.Intn(2))}
			if rng.Intn(3) == 0 {
				labels = append(labels, core.Label((int(labels[0])+1)%2))
			}
			posts[i] = mk(int64(i), v, labels...)
		}
		for _, plus := range []bool{false, true} {
			p, _ := NewGreedy(2, 3, 5, plus)
			checkStream(t, posts, 2, 3, 5, p)
		}
	}
}

func TestFlushEmitsOutstanding(t *testing.T) {
	for _, mkProc := range []func() Processor{
		func() Processor { p, _ := NewScan(1, 10, 10, false); return p },
		func() Processor { p, _ := NewGreedy(1, 10, 10, false); return p },
	} {
		p := mkProc()
		mustProcess(t, p, mk(1, 0, 0))
		es := p.Flush()
		if len(es) != 1 || es[0].Post.ID != 1 {
			t.Errorf("%s flush = %+v, want the lone pending post", p.Name(), es)
		}
	}
}

func TestConstructorsRejectNegativeParams(t *testing.T) {
	if _, err := NewScan(1, -1, 0, false); err == nil {
		t.Error("NewScan accepted λ<0")
	}
	if _, err := NewScan(1, 1, -1, false); err == nil {
		t.Error("NewScan accepted τ<0")
	}
	if _, err := NewGreedy(1, -1, 0, false); err == nil {
		t.Error("NewGreedy accepted λ<0")
	}
	if _, err := NewInstant(1, math.Nextafter(0, -1)); err == nil {
		t.Error("NewInstant accepted λ<0")
	}
}

func TestEmptyFlush(t *testing.T) {
	for _, p := range allProcessors(t, 3, 1, 1) {
		if es := p.Flush(); len(es) != 0 {
			t.Errorf("%s: flush on empty stream emitted %+v", p.Name(), es)
		}
	}
}

func mustProcess(t *testing.T, p Processor, post core.Post) []Emission {
	t.Helper()
	es, err := p.Process(post)
	if err != nil {
		t.Fatalf("%s.Process: %v", p.Name(), err)
	}
	return es
}

func TestSummarize(t *testing.T) {
	es := []Emission{
		{Post: mk(1, 0, 0), EmitAt: 1},
		{Post: mk(2, 10, 0), EmitAt: 12},
		{Post: mk(3, 20, 0), EmitAt: 23},
		{Post: mk(4, 30, 0), EmitAt: 34},
	}
	s := Summarize(es)
	if s.Count != 4 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.MaxDelay != 4 {
		t.Errorf("MaxDelay = %v", s.MaxDelay)
	}
	if s.MeanDelay != 2.5 {
		t.Errorf("MeanDelay = %v", s.MeanDelay)
	}
	if s.P95Delay != 4 {
		t.Errorf("P95Delay = %v", s.P95Delay)
	}
	zero := Summarize(nil)
	if zero.Count != 0 || zero.MaxDelay != 0 {
		t.Errorf("empty summary = %+v", zero)
	}
	// SummarizeDelays is the same computation over raw delays.
	if d := SummarizeDelays([]float64{1, 2, 3, 4}); d != s {
		t.Errorf("SummarizeDelays = %+v, want %+v", d, s)
	}
	if d := SummarizeDelays(nil); d.Count != 0 || d.P95Delay != 0 {
		t.Errorf("empty SummarizeDelays = %+v", d)
	}
}
