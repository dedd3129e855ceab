package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// sameCover asserts two covers select exactly the same posts.
func sameCover(t *testing.T, ctx string, want, got *Cover) {
	t.Helper()
	if len(want.Selected) != len(got.Selected) {
		t.Fatalf("%s: want %v, got %v", ctx, want.Selected, got.Selected)
	}
	for k := range want.Selected {
		if want.Selected[k] != got.Selected[k] {
			t.Fatalf("%s: want %v, got %v", ctx, want.Selected, got.Selected)
		}
	}
}

// withScanShardMin runs fn with scanShardMin at n and GOMAXPROCS at least
// 4, so a threshold of 0 takes Scan's sharded path even on one CPU.
func withScanShardMin(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	defer SetScanShardMin(n)()
	fn()
}

var allOrders = []ScanOrder{OrderByID, OrderByFrequencyDesc, OrderByFrequencyAsc}

// solveShardedAndSerial runs every solver with Scan's sharding threshold
// forced to 0 and to never, and fails unless each pair of covers is equal.
func solveShardedAndSerial(t *testing.T, in *Instance, m LambdaModel) {
	t.Helper()
	solve := func() []*Cover {
		covers := []*Cover{in.Scan(m), in.GreedySC(m)}
		for _, order := range allOrders {
			covers = append(covers, in.ScanPlus(m, order))
		}
		return covers
	}
	var sharded, serial []*Cover
	withScanShardMin(0, func() { sharded = solve() })
	withScanShardMin(math.MaxInt, func() { serial = solve() })
	for k := range serial {
		sameCover(t, serial[k].Algorithm, serial[k], sharded[k])
	}
}

// TestQuickParallelSolversMatchSerial is the determinism contract: every
// solver returns the same cover whichever path Scan's sharding threshold
// picks, on seeded random instances.
func TestQuickParallelSolversMatchSerial(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8) bool {
		in := quickInstance(seed, 40, 8, 60, 0)
		solveShardedAndSerial(t, in, FixedLambda(float64(lambdaRaw%16)+0.5))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelSolversMatchSerialProportional repeats the contract under
// the §6 per-post proportional model, where coverage is directional.
func TestQuickParallelSolversMatchSerialProportional(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8) bool {
		in := quickInstance(seed, 35, 6, 50, 0)
		pl, err := NewProportionalLambda(in, float64(lambdaRaw%8)+1)
		if err != nil {
			return false
		}
		solveShardedAndSerial(t, in, pl)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelSolversWorkersZeroMeansGOMAXPROCS runs Scan's sharded path at
// the process's own GOMAXPROCS (parallel.Workers(0)) and verifies its cover
// against the serial one.
func TestParallelSolversWorkersZeroMeansGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	in := randomInstance(rng, 60, 8, 80)
	lm := FixedLambda(3)
	restore := SetScanShardMin(math.MaxInt)
	defer restore()
	serial := in.Scan(lm)
	SetScanShardMin(0)
	sharded := in.Scan(lm)
	sameCover(t, "Scan", serial, sharded)
	if err := in.VerifyCover(lm, sharded.Selected); err != nil {
		t.Errorf("%s: %v", sharded.Algorithm, err)
	}
}

// singleLabelInstance is a random instance in which every post carries
// exactly one label (s = 1), on the grid of quickInstance when grid > 0.
func singleLabelInstance(seed int64, maxPosts, maxLabels, valueRange int, grid float64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	L := 1 + rng.Intn(maxLabels)
	var vals []float64
	if grid > 0 {
		vals = gridValues(rng, 1+rng.Intn(maxPosts), grid)
	} else {
		for range 1 + rng.Intn(maxPosts) {
			vals = append(vals, float64(rng.Intn(valueRange)))
		}
	}
	posts := make([]Post, len(vals))
	for i, v := range vals {
		posts[i] = Post{ID: int64(i), Value: v, Labels: []Label{Label(rng.Intn(L))}}
	}
	return MustInstance(posts, L)
}

// TestQuickScanPlusIsCoveredPassWhenNoPostHasTwoLabels pins ScanPlus's
// s ≤ 1 shortcut: for every label order, on both λ models and on both of
// Scan's paths, it returns exactly what the covered-bitmap pass selects,
// under Scan+'s name.
func TestQuickScanPlusIsCoveredPassWhenNoPostHasTwoLabels(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8, gridded bool) bool {
		lambda := float64(lambdaRaw%12) + 1
		grid := 0.0
		if gridded {
			grid = lambda
		}
		in := singleLabelInstance(seed, 40, 6, 60, grid)
		if s := in.MaxLabelsPerPost(); s != 1 {
			t.Fatalf("seed %d: s = %d, want 1", seed, s)
		}
		pl, err := NewProportionalLambda(in, lambda)
		if err != nil {
			return false
		}
		for _, m := range []LambdaModel{FixedLambda(lambda), pl} {
			for _, shardMin := range []int{0, math.MaxInt} {
				withScanShardMin(shardMin, func() {
					for _, order := range allOrders {
						got := in.ScanPlus(m, order)
						if got.Algorithm != "Scan+" {
							t.Fatalf("seed %d: ScanPlus named %q", seed, got.Algorithm)
						}
						sameCover(t, "Scan+ vs covered pass", &Cover{Selected: in.scanCovered(m, order)}, got)
					}
				})
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestScanScratchReuseIsClean runs interleaved solves on different instances
// to catch stale pooled state (covered bits or selection residue) leaking
// between calls.
func TestScanScratchReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	instances := make([]*Instance, 6)
	for k := range instances {
		instances[k] = randomInstance(rng, 30, 5, 40)
	}
	lm := FixedLambda(2)
	want := make([][2]*Cover, len(instances))
	for k, in := range instances {
		want[k] = [2]*Cover{in.Scan(lm), in.ScanPlus(lm, OrderByID)}
	}
	for round := 0; round < 20; round++ {
		k := rng.Intn(len(instances))
		in := instances[k]
		if round%2 == 0 {
			sameCover(t, "Scan", want[k][0], in.Scan(lm))
		} else {
			sameCover(t, "Scan+", want[k][1], in.ScanPlus(lm, OrderByID))
		}
	}
}
