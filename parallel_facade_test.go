package mqdp_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mqdp"
	"mqdp/internal/synth"
)

// randomFacadePosts builds a seeded random post set over numLabels labels.
func randomFacadePosts(seed int64, n, numLabels int) []mqdp.Post {
	rng := rand.New(rand.NewSource(seed))
	posts := make([]mqdp.Post, n)
	for i := range posts {
		var labels []mqdp.Label
		for a := 0; a < numLabels; a++ {
			if rng.Intn(3) == 0 {
				labels = append(labels, mqdp.Label(a))
			}
		}
		if len(labels) == 0 {
			labels = append(labels, mqdp.Label(rng.Intn(numLabels)))
		}
		posts[i] = mqdp.Post{ID: int64(i), Value: float64(rng.Intn(80)), Labels: labels}
	}
	return posts
}

// solveIDs solves inst and returns the selected posts' IDs, sorted.
func solveIDs(t *testing.T, inst *mqdp.Instance, opts mqdp.Options) []int64 {
	t.Helper()
	cover, err := mqdp.Solve(inst, opts)
	if err != nil {
		t.Fatalf("%s: %v", opts.Algorithm, err)
	}
	ids := cover.IDs(inst)
	slices.Sort(ids)
	return ids
}

// TestQuickParallelismEightMatchesSerial pins the deprecated
// Options.Parallelism as ignored: 8, 1 and even -2 return the cover of an
// unset field, on seeded random instances.
func TestQuickParallelismEightMatchesSerial(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8, proportional bool) bool {
		numLabels := 2 + int(uint(seed)%7)
		posts := randomFacadePosts(seed, 10+int(uint(seed)%50), numLabels)
		inst, err := mqdp.NewInstance(posts, numLabels)
		if err != nil {
			return false
		}
		lambda := float64(lambdaRaw%16) + 1
		for _, algo := range []mqdp.Algorithm{mqdp.Scan, mqdp.ScanPlus, mqdp.GreedySC} {
			opts := mqdp.Options{Lambda: lambda, Algorithm: algo, Proportional: proportional}
			want := solveIDs(t, inst, opts)
			for _, p := range []int{8, 1, -2} {
				opts.Parallelism = p
				if got := solveIDs(t, inst, opts); !slices.Equal(got, want) {
					t.Logf("seed=%d λ=%v %s parallelism %d: %v, unset %v", seed, lambda, algo, p, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestParallelismOnSynthWorkload checks Scan through the facade on a
// synthetic stream large enough for its per-label passes to run sharded:
// the cover is the union of the covers of each label solved alone.
func TestParallelismOnSynthWorkload(t *testing.T) {
	const numLabels = 8
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration: 43200, RatePerSec: 2, NumLabels: numLabels, Overlap: 1.6, Seed: 1234,
	})
	inst, err := mqdp.NewInstance(posts, numLabels)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for a := mqdp.Label(0); a < numLabels; a++ {
		var only []mqdp.Post
		for _, p := range posts {
			if slices.Contains(p.Labels, a) {
				only = append(only, mqdp.Post{ID: p.ID, Value: p.Value, Labels: []mqdp.Label{0}})
			}
		}
		alone, err := mqdp.NewInstance(only, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, solveIDs(t, alone, mqdp.Options{Lambda: 45})...)
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if got := solveIDs(t, inst, mqdp.Options{Lambda: 45}); !slices.Equal(got, want) {
		t.Fatalf("Scan selected %d posts, the per-label covers %d", len(got), len(want))
	}
}
