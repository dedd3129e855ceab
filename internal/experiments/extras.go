package experiments

import (
	"fmt"
	"io"
	"time"

	"mqdp/internal/core"
	"mqdp/internal/sat"
	"mqdp/internal/simhash"
	"mqdp/internal/synth"
)

func init() {
	register(Experiment{
		ID:    "hardness",
		Title: "§3: CNF→MQDP reduction demo (Lemma 1 forward direction + published-proof counterexample)",
		Run:   runHardness,
	})
	register(Experiment{
		ID:    "prop",
		Title: "§6: proportional diversity via variable λ — representativeness on a skewed stream",
		Run:   runProp,
	})
	register(Experiment{
		ID:    "ablation-scanplus",
		Title: "Ablation: Scan+ label-ordering effect on solution size",
		Run:   runAblationScanPlus,
	})
	register(Experiment{
		ID:    "ablation-dedup",
		Title: "Ablation: SimHash near-duplicate elimination ahead of diversification",
		Run:   runAblationDedup,
	})
	register(Experiment{
		ID:    "ablation-greedy",
		Title: "Ablation: lazy-heap GreedySC vs the paper's rescan-all implementation (§7.3 discussion)",
		Run:   runAblationGreedy,
	})
}

func runHardness(w io.Writer, sc Scale) error {
	formulas := []*sat.Formula{
		{NumVars: 1, Clauses: []sat.Clause{{1}}},
		{NumVars: 2, Clauses: []sat.Clause{{1, 2}, {-1, 2}}},
		{NumVars: 2, Clauses: []sat.Clause{{1}, {-1}}},
		{NumVars: 3, Clauses: []sat.Clause{{1, -2}, {2, 3}, {-1, -3}}},
	}
	tb := newTable("formula", "sat", "posts", "labels", "budget n(2m+3)", "constructed cover", "greedySC")
	for _, f := range formulas {
		assign, satisfiable := sat.Solve(f)
		r, err := sat.Reduce(f)
		if err != nil {
			return err
		}
		in, err := r.Instance()
		if err != nil {
			return err
		}
		constructed := "-"
		if satisfiable {
			ids, err := r.CoverFromAssignment(assign)
			if err != nil {
				return err
			}
			constructed = fmt.Sprint(len(ids))
		}
		greedy := in.GreedySC(core.FixedLambda(r.Lambda))
		tb.add(f.String(), satisfiable, len(r.Posts), r.NumLabels, r.Budget, constructed, greedy.Size())
	}
	if err := tb.write(w); err != nil {
		return err
	}
	// The documented counterexample to the published (⇐) proof.
	f := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{1}, {-1}}}
	r, err := sat.Reduce(f)
	if err != nil {
		return err
	}
	in, err := r.Instance()
	if err != nil {
		return err
	}
	exact, err := in.Exhaustive(core.FixedLambda(r.Lambda))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nreproduction finding: %s is UNSAT, budget n(2m+3)=%d, but the exact minimum cover is %d\n"+
		"(boundary posts break the published proof's even-positions rigidity claim; see internal/sat).\n",
		f, r.Budget, exact.Size())
	return err
}

func runProp(w io.Writer, sc Scale) error {
	// A skewed single-label stream: a dense region (4 posts/unit) and a
	// sparse region (0.1 posts/unit). §6's Equation 2 should allocate the
	// result roughly proportionally, where fixed λ over-represents the
	// sparse region.
	dense, sparse := 2000, 50
	if sc == Smoke {
		dense, sparse = 400, 10
	}
	rng := newSeededRand(301)
	var posts []core.Post
	id := int64(0)
	for i := 0; i < dense; i++ {
		posts = append(posts, core.Post{ID: id, Value: rng.Float64() * float64(dense) / 4, Labels: []core.Label{0}})
		id++
	}
	sparseStart := float64(dense) / 4
	for i := 0; i < sparse; i++ {
		posts = append(posts, core.Post{ID: id, Value: sparseStart + rng.Float64()*float64(sparse)*10, Labels: []core.Label{0}})
		id++
	}
	in, err := core.NewInstance(posts, 1)
	if err != nil {
		return err
	}
	lambda0 := 10.0
	pl, err := core.NewProportionalLambda(in, lambda0)
	if err != nil {
		return err
	}
	count := func(c *core.Cover) (denseSel, sparseSel int) {
		for _, i := range c.Selected {
			if in.Post(i).Value < sparseStart {
				denseSel++
			} else {
				sparseSel++
			}
		}
		return
	}
	fixed := in.Scan(core.FixedLambda(lambda0))
	prop := in.Scan(pl)
	fd, fs := count(fixed)
	pd, ps := count(prop)
	tb := newTable("model", "selected", "dense region", "sparse region", "dense share")
	tb.add("input", len(posts), dense, sparse, float64(dense)/float64(len(posts)))
	tb.add("fixed λ", fixed.Size(), fd, fs, share(fd, fixed.Size()))
	tb.add("proportional λ (Eq. 2)", prop.Size(), pd, ps, share(pd, prop.Size()))
	return tb.write(w)
}

func share(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func runAblationScanPlus(w io.Writer, sc Scale) error {
	tb := newTable("|L|", "thinning", "scan", "scan+ byID", "scan+ freq desc", "scan+ freq asc", "greedySC")
	for _, L := range labelSweep(sc) {
		in := day(sc, L, 1600+int64(L))
		lambda := 600.0
		lm := core.FixedLambda(lambda)
		tb.add(L,
			in.BucketThinning(lambda).Size(),
			in.Scan(lm).Size(),
			in.ScanPlus(lm, core.OrderByID).Size(),
			in.ScanPlus(lm, core.OrderByFrequencyDesc).Size(),
			in.ScanPlus(lm, core.OrderByFrequencyAsc).Size(),
			in.GreedySC(lm).Size())
	}
	return tb.write(w)
}

func runAblationDedup(w io.Writer, sc Scale) error {
	streamCfg := synth.StreamConfig{Duration: 1800, RatePerSec: 4, DupRatio: 0.25, Seed: 401}
	if sc == Smoke {
		streamCfg.Duration = 300
	}
	world := synth.NewWorld(synth.WorldConfig{BroadTopics: 3, TopicsPerBroad: 3, Seed: 400})
	tweets := synth.TweetStream(world, streamCfg)
	injected := 0
	for _, tw := range tweets {
		if tw.Dup {
			injected++
		}
	}
	tb := newTable("hamming threshold", "kept", "dropped", "drop rate", "injected dropped", "originals dropped")
	for _, dist := range []int{0, 3, 8, 10, 12} {
		d := simhash.NewDeduper(dist, 1024)
		kept, dupsDropped := 0, 0
		for _, tw := range tweets {
			if d.Offer(tw.Text) {
				kept++
			} else if tw.Dup {
				dupsDropped++
			}
		}
		seen, dropped := d.Stats()
		tb.add(dist, kept, dropped, share(dropped, seen),
			share(dupsDropped, injected), share(dropped-dupsDropped, seen-injected))
	}
	if err := tb.write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nstream: %d tweets with 25%% injected near-duplicates\n", len(tweets))
	return err
}

func runAblationGreedy(w io.Writer, sc Scale) error {
	// Part 1: scaling in |P| at fixed λ.
	durations := []float64{600, 1800, 3600}
	if sc == Smoke {
		durations = []float64{120, 300}
	}
	tb := newTable("posts", "lazy-heap ns/post", "rescan-all ns/post", "same result")
	for i, dur := range durations {
		posts := synth.GeneratePosts(synth.PostStreamConfig{
			Duration: dur, RatePerSec: 1.5, NumLabels: 5, Overlap: 1.5, Seed: 500 + int64(i),
		})
		in, err := core.NewInstance(posts, 5)
		if err != nil {
			return err
		}
		lm := core.FixedLambda(60)
		start := time.Now()
		lazy := in.GreedySC(lm)
		lazyTime := time.Since(start)
		start = time.Now()
		naive := in.GreedySCNaive(lm)
		naiveTime := time.Since(start)
		tb.add(in.Len(), perPost(lazyTime, in.Len()), perPost(naiveTime, in.Len()), lazy.Size() == naive.Size())
	}
	if err := tb.write(w); err != nil {
		return err
	}
	// Part 2: λ sweep. The paper's Figure 13 shows GreedySC getting faster
	// as λ grows because its rescan-all loop runs one pass per selection
	// and larger λ means fewer selections; the lazy heap removes that
	// dependence. This table reproduces the paper's shape on the faithful
	// implementation.
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	lambdas := []float64{60, 300, 600, 1800}
	dayLen := 86400.0
	if sc == Smoke {
		lambdas = []float64{60, 600}
		dayLen = 3600
	}
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration: dayLen, RatePerSec: rateForLabels(2), NumLabels: 2, Overlap: 1.4, Diurnal: true, Seed: 510,
	})
	in, err := core.NewInstance(posts, 2)
	if err != nil {
		return err
	}
	tb2 := newTable("lambda(s)", "solution", "lazy-heap ns/post", "rescan-all ns/post")
	for _, lambda := range lambdas {
		lm := core.FixedLambda(lambda)
		start := time.Now()
		lazy := in.GreedySC(lm)
		lazyTime := time.Since(start)
		start = time.Now()
		in.GreedySCNaive(lm)
		naiveTime := time.Since(start)
		tb2.add(lambda, lazy.Size(), perPost(lazyTime, in.Len()), perPost(naiveTime, in.Len()))
	}
	return tb2.write(w)
}
