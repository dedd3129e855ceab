package stream

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mqdp/internal/core"
)

// quickStream derives a random, time-ordered post stream from a seed. With
// grid > 0 it is in grid mode: timestamps are multiples of 1/6, 1/7 or 1/10
// (as in the bench workloads) over [0, 8·grid], and four in five have a
// partner exactly grid later on the grid, one ulp either side of that, or at
// fl(t+grid) — the gaps that land on, just under or just over λ = grid.
func quickStream(seed int64, maxPosts, numLabels int, grid float64) []core.Post {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxPosts)
	vals := make([]float64, 0, n+1)
	den := []float64{6, 7, 10}[rng.Intn(3)]
	v := 0.0
	for len(vals) < n {
		if grid <= 0 {
			v += rng.Float64() * 4
			vals = append(vals, v)
			continue
		}
		k := float64(rng.Intn(int(8*grid*den) + 1))
		vals = append(vals, k/den)
		switch partner := (k + grid*den) / den; rng.Intn(5) {
		case 1:
			vals = append(vals, partner)
		case 2:
			vals = append(vals, math.Nextafter(partner, math.Inf(1)))
		case 3:
			vals = append(vals, math.Nextafter(partner, math.Inf(-1)))
		case 4:
			vals = append(vals, k/den+grid)
		}
	}
	sort.Float64s(vals)
	posts := make([]core.Post, len(vals))
	for i, v := range vals {
		var labels []core.Label
		for a := 0; a < numLabels; a++ {
			if rng.Intn(3) == 0 {
				labels = append(labels, core.Label(a))
			}
		}
		if len(labels) == 0 {
			labels = append(labels, core.Label(rng.Intn(numLabels)))
		}
		posts[i] = core.Post{ID: int64(i), Value: v, Labels: labels}
	}
	return posts
}

func TestQuickEmissionsAlwaysCoverAndRespectDelay(t *testing.T) {
	// Grid streams use integer λ, and also check the emissions against
	// brute-force Covers and AdaptiveScan (λ0 = λ) through EmittedRadius.
	check := func(seed int64, lambdaRaw, tauRaw uint8, grid bool) bool {
		const numLabels = 3
		lambda := float64(lambdaRaw%12) + 1
		posts := quickStream(seed, 50, numLabels, 0)
		if grid {
			lambda = float64(lambdaRaw%5) + 1
			posts = quickStream(seed, 50, numLabels, lambda)
		}
		tau := float64(tauRaw % 12)
		procs := []Processor{}
		for _, plus := range []bool{false, true} {
			sc, _ := NewScan(numLabels, lambda, tau, plus)
			gr, _ := NewGreedy(numLabels, lambda, tau, plus)
			procs = append(procs, sc, gr)
		}
		inst, _ := NewInstant(numLabels, lambda)
		procs = append(procs, inst)
		in, err := core.NewInstance(posts, numLabels)
		if err != nil {
			return false
		}
		byID := make(map[int64]int)
		for i := 0; i < in.Len(); i++ {
			byID[in.Post(i).ID] = i
		}
		lm := core.FixedLambda(lambda)
		for _, p := range procs {
			es, err := Run(posts, p)
			if err != nil {
				t.Logf("seed=%d: %s: %v", seed, p.Name(), err)
				return false
			}
			bound := tau
			if p.Name() == "Instant" {
				bound = 0
			}
			var sel []int
			for _, e := range es {
				sel = append(sel, byID[e.Post.ID])
				if d := e.EmitAt - e.Post.Value; d < -1e-9 || d > bound+1e-9 {
					t.Logf("seed=%d: %s delay %v outside [0,%v]", seed, p.Name(), d, bound)
					return false
				}
			}
			if err := in.VerifyCover(lm, sel); err != nil || (grid && !bruteForceCovered(in, lm, sel)) {
				t.Logf("seed=%d λ=%v τ=%v grid=%v: %s: %v", seed, lambda, tau, grid, p.Name(), err)
				return false
			}
		}
		if grid {
			s, _ := NewAdaptiveScan(numLabels, lambda, tau)
			es, err := Run(posts, s)
			if err != nil {
				return false
			}
			verifyAdaptive(t, s, posts, es)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 240}); err != nil {
		t.Error(err)
	}
}

// bruteForceCovered applies the paper's definition pair by pair: every
// (post, label) has a selected post carrying the label that Covers it.
func bruteForceCovered(in *core.Instance, m core.LambdaModel, sel []int) bool {
	for j := 0; j < in.Len(); j++ {
	next:
		for _, a := range in.Post(j).Labels {
			for _, i := range sel {
				if slices.Contains(in.Post(i).Labels, a) && in.Covers(m, i, j, a) {
					continue next
				}
			}
			return false
		}
	}
	return true
}

func TestQuickStreamingDeterministic(t *testing.T) {
	check := func(seed int64) bool {
		posts := quickStream(seed, 40, 2, 0)
		for _, build := range []func() Processor{
			func() Processor { p, _ := NewScan(2, 5, 3, true); return p },
			func() Processor { p, _ := NewGreedy(2, 5, 3, false); return p },
			func() Processor { p, _ := NewInstant(2, 5); return p },
		} {
			a, errA := Run(posts, build())
			b, errB := Run(posts, build())
			if errA != nil || errB != nil || len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Post.ID != b[i].Post.ID || a[i].EmitAt != b[i].EmitAt {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickInstantNeverBeatsHalfOptimalPerLabel(t *testing.T) {
	// Instant's per-label guarantee (§5.1): consecutive emissions for one
	// label are > λ apart, hence ≤ 2·OPT emissions per label.
	check := func(seed int64, lambdaRaw uint8) bool {
		posts := quickStream(seed, 20, 1, 0)
		lambda := float64(lambdaRaw%8) + 1
		p, _ := NewInstant(1, lambda)
		es, err := Run(posts, p)
		if err != nil {
			return false
		}
		for i := 1; i < len(es); i++ {
			if es[i].Post.Value-es[i-1].Post.Value <= lambda {
				t.Logf("seed=%d: consecutive instant emissions within λ", seed)
				return false
			}
		}
		in, err := core.NewInstance(posts, 1)
		if err != nil {
			return false
		}
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			return false
		}
		return len(es) <= 2*opt.Size()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
