package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickInstance derives a small random instance from a seed. With grid > 0
// it is in grid mode: values come from the k/6, k/7 or k/10 grid over
// [0, 4·grid] and four in five get a planted partner exactly grid away on
// the grid, one ulp either side of that, or at fl(v+grid) — the pairs
// whose float gap lands on, just under or just over an integer λ.
func quickInstance(seed int64, maxPosts, maxLabels, valueRange int, grid float64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	if grid <= 0 {
		return randomInstance(rng, maxPosts, maxLabels, valueRange)
	}
	L := 1 + rng.Intn(maxLabels)
	vals := gridValues(rng, 1+rng.Intn(maxPosts), grid)
	posts := make([]Post, len(vals))
	for i, v := range vals {
		var labels []Label
		for a := 0; a < L; a++ {
			if rng.Intn(2) == 0 {
				labels = append(labels, Label(a))
			}
		}
		if len(labels) == 0 {
			labels = append(labels, Label(rng.Intn(L)))
		}
		posts[i] = Post{ID: int64(i), Value: v, Labels: labels}
	}
	return MustInstance(posts, L)
}

// gridValues draws at least n grid-mode values (see quickInstance).
func gridValues(rng *rand.Rand, n int, lambda float64) []float64 {
	den := []float64{6, 7, 10}[rng.Intn(3)]
	var vals []float64
	for len(vals) < n {
		k := float64(rng.Intn(int(4*lambda*den) + 1))
		partner := (k + lambda*den) / den
		switch rng.Intn(5) {
		case 0:
			vals = append(vals, k/den)
			continue
		case 1:
			partner = math.Nextafter(partner, math.Inf(1))
		case 2:
			partner = math.Nextafter(partner, math.Inf(-1))
		case 3:
			partner = k/den + lambda
		}
		vals = append(vals, k/den, partner)
	}
	return vals
}

func TestQuickAllSolversProduceValidCovers(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8, grid bool) bool {
		in := quickInstance(seed, 25, 4, 40, 0)
		lambda := float64(lambdaRaw%16) + 0.5
		if grid {
			lambda = float64(lambdaRaw%5) + 1
			in = quickInstance(seed, 25, 4, 0, lambda)
		}
		lm := FixedLambda(lambda)
		for _, c := range []*Cover{
			in.Scan(lm),
			in.ScanPlus(lm, OrderByID),
			in.ScanPlus(lm, OrderByFrequencyDesc),
			in.GreedySC(lm),
		} {
			if err := in.VerifyCover(lm, c.Selected); err != nil || !bruteForceCovered(in, lm, c.Selected) {
				t.Logf("seed=%d λ=%v grid=%v: %s invalid: %v", seed, lambda, grid, c.Algorithm, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickOPTMonotoneInLambda(t *testing.T) {
	// A λ-cover is also a λ'-cover for λ' ≥ λ, so the optimum cannot grow.
	check := func(seed int64) bool {
		in := quickInstance(seed, 9, 2, 16, 0)
		prev := -1
		for _, lambda := range []float64{0.5, 1, 2, 4, 8} {
			c, err := in.OPT(lambda, nil)
			if err != nil {
				return false
			}
			if prev >= 0 && c.Size() > prev {
				t.Logf("seed=%d: OPT grew from %d to %d as λ increased to %v", seed, prev, c.Size(), lambda)
				return false
			}
			prev = c.Size()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoverOfCoverIsNoLarger(t *testing.T) {
	// Re-diversifying an already diversified set cannot need more posts
	// than the set itself, and its cover must still verify.
	check := func(seed int64, lambdaRaw uint8) bool {
		in := quickInstance(seed, 30, 3, 50, 0)
		lambda := float64(lambdaRaw%10) + 1
		lm := FixedLambda(lambda)
		first := in.GreedySC(lm)
		sub := make([]Post, 0, first.Size())
		for _, i := range first.Selected {
			sub = append(sub, in.Post(i))
		}
		subInst, err := NewInstance(sub, in.NumLabels())
		if err != nil {
			return false
		}
		second := subInst.GreedySC(lm)
		if second.Size() > first.Size() {
			return false
		}
		return subInst.VerifyCover(lm, second.Selected) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectedPostsAlwaysRelevant(t *testing.T) {
	// No solver may select a post with no labels: it covers nothing.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 20, 3, 30)
		// Inject unlabeled noise posts.
		posts := append([]Post(nil), in.Posts()...)
		for i := 0; i < 5; i++ {
			posts = append(posts, Post{ID: int64(1000 + i), Value: float64(rng.Intn(30))})
		}
		in2, err := NewInstance(posts, in.NumLabels())
		if err != nil {
			return false
		}
		lm := FixedLambda(2)
		for _, c := range []*Cover{in2.Scan(lm), in2.ScanPlus(lm, OrderByID), in2.GreedySC(lm)} {
			for _, i := range c.Selected {
				if len(in2.Post(i).Labels) == 0 {
					t.Logf("seed=%d: %s selected unlabeled post %d", seed, c.Algorithm, in2.Post(i).ID)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickDictionaryRoundTrip(t *testing.T) {
	check := func(names []string) bool {
		var d Dictionary
		ids := make(map[string]Label)
		for _, n := range names {
			id := d.Intern(n)
			if prev, seen := ids[n]; seen && prev != id {
				return false
			}
			ids[n] = id
		}
		for n, id := range ids {
			if d.Name(id) != n {
				return false
			}
			if got, ok := d.Lookup(n); !ok || got != id {
				return false
			}
		}
		return d.Len() == len(ids)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickVerifierAgreesWithBruteForce(t *testing.T) {
	// VerifyCover (windowed marking) must agree with the naive O(n²·L)
	// definition of λ-coverage on random selections.
	check := func(seed int64, lambdaRaw, pick uint8, grid bool) bool {
		in := quickInstance(seed, 12, 3, 20, 0)
		lambda := float64(lambdaRaw % 8)
		if grid {
			lambda = float64(lambdaRaw%4) + 1
			in = quickInstance(seed, 12, 3, 0, lambda)
		}
		lm := FixedLambda(lambda)
		var sel []int
		for i := 0; i < in.Len(); i++ {
			// Grid selections are denser, so that more of them are
			// covers or miss one boundary pair.
			if pick&(1<<(uint(i)%8)) != 0 && (grid || i%2 == int(pick)%2) {
				sel = append(sel, i)
			}
		}
		fast := in.VerifyCover(lm, sel) == nil
		slow := bruteForceCovered(in, lm, sel)
		if fast != slow {
			t.Logf("seed=%d λ=%v grid=%v sel=%v: fast=%v slow=%v", seed, lambda, grid, sel, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func bruteForceCovered(in *Instance, m LambdaModel, sel []int) bool {
	for j := 0; j < in.Len(); j++ {
		for _, a := range in.Post(j).Labels {
			covered := false
			for _, i := range sel {
				if hasLabel(in.Post(i).Labels, a) && in.Covers(m, i, j, a) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

func TestQuickEveryOptimalCoverElementIsEssential(t *testing.T) {
	// If removing an element from a minimum cover left it feasible, a
	// smaller cover would exist — contradiction. So every element of an
	// OPT/Exhaustive cover is essential.
	// Grid instances also check OPT against brute force and Exhaustive.
	check := func(seed int64, lambdaRaw uint8, grid bool) bool {
		lambda := float64(lambdaRaw%6) + 1
		in := quickInstance(seed, 10, 2, 16, 0)
		if grid {
			in = quickInstance(seed, 10, 2, 0, lambda)
		}
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			t.Logf("seed=%d λ=%v grid=%v: %v", seed, lambda, grid, err)
			return false
		}
		lm := FixedLambda(lambda)
		if grid {
			exact, err := in.Exhaustive(lm)
			if err != nil || exact.Size() != opt.Size() || !bruteForceCovered(in, lm, opt.Selected) {
				t.Logf("seed=%d λ=%v: OPT %v, Exhaustive %v (%v)", seed, lambda, opt.Selected, exact, err)
				return false
			}
		}
		for drop := range opt.Selected {
			reduced := make([]int, 0, len(opt.Selected)-1)
			for k, i := range opt.Selected {
				if k != drop {
					reduced = append(reduced, i)
				}
			}
			if in.VerifyCover(lm, reduced) == nil {
				t.Logf("seed=%d λ=%v: dropping element %d of optimal cover %v keeps it feasible",
					seed, lambda, opt.Selected[drop], opt.Selected)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 160}); err != nil {
		t.Error(err)
	}
}
