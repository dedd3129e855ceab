package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sameCover asserts two covers select exactly the same posts.
func sameCover(t *testing.T, ctx string, serial, par *Cover) {
	t.Helper()
	if len(serial.Selected) != len(par.Selected) {
		t.Fatalf("%s: serial selected %v, parallel %v", ctx, serial.Selected, par.Selected)
	}
	for k := range serial.Selected {
		if serial.Selected[k] != par.Selected[k] {
			t.Fatalf("%s: serial selected %v, parallel %v", ctx, serial.Selected, par.Selected)
		}
	}
}

// TestQuickParallelSolversMatchSerial is the determinism contract: for every
// solver and every worker count, the parallel path must return exactly the
// serial cover on seeded random instances.
func TestQuickParallelSolversMatchSerial(t *testing.T) {
	check := func(seed int64, lambdaRaw uint8) bool {
		in := quickInstance(seed, 40, 8, 60, 0)
		lambda := float64(lambdaRaw%16) + 0.5
		lm := FixedLambda(lambda)
		for _, workers := range []int{2, 3, 8} {
			sameCover(t, "Scan", in.Scan(lm), in.ScanParallel(lm, workers))
			for _, order := range []ScanOrder{OrderByID, OrderByFrequencyDesc, OrderByFrequencyAsc} {
				sameCover(t, "Scan+", in.ScanPlus(lm, order), in.ScanPlusParallel(lm, order, workers))
			}
			sameCover(t, "GreedySC", in.GreedySC(lm), in.GreedySCParallel(lm, workers))
		}
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
		lambda0 := float64(lambdaRaw%8) + 1
		pl, err := NewProportionalLambda(in, lambda0)
		if err != nil {
			return false
		}
		sameCover(t, "Scan/prop", in.Scan(pl), in.ScanParallel(pl, 8))
		sameCover(t, "Scan+/prop", in.ScanPlus(pl, OrderByFrequencyAsc), in.ScanPlusParallel(pl, OrderByFrequencyAsc, 8))
		sameCover(t, "GreedySC/prop", in.GreedySC(pl), in.GreedySCParallel(pl, 8))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelSolversWorkersZeroMeansGOMAXPROCS exercises the 0 = GOMAXPROCS
// convention and verifies the covers.
func TestParallelSolversWorkersZeroMeansGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	in := randomInstance(rng, 60, 8, 80)
	lm := FixedLambda(3)
	sameCover(t, "Scan", in.Scan(lm), in.ScanParallel(lm, 0))
	sameCover(t, "Scan+", in.ScanPlus(lm, OrderByID), in.ScanPlusParallel(lm, OrderByID, 0))
	sameCover(t, "GreedySC", in.GreedySC(lm), in.GreedySCParallel(lm, 0))
	for _, c := range []*Cover{in.ScanParallel(lm, 0), in.ScanPlusParallel(lm, OrderByID, 0), in.GreedySCParallel(lm, 0)} {
		if err := in.VerifyCover(lm, c.Selected); err != nil {
			t.Errorf("%s: %v", c.Algorithm, err)
		}
	}
}

func TestLabelComponentsPartitionAndOrder(t *testing.T) {
	// Labels {0,1} share post 2, labels {2,3} share post 5, label 4 is
	// isolated; components must preserve the given order within and across.
	in := inst(t, 5,
		mk(1, 0, 0), mk(2, 1, 0, 1), mk(3, 2, 1),
		mk(4, 0, 2), mk(5, 1, 2, 3),
		mk(6, 0.5, 4),
	)
	comps := in.labelComponents([]Label{0, 1, 2, 3, 4})
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3 groups", comps)
	}
	wantGroups := [][]Label{{0, 1}, {2, 3}, {4}}
	for g, want := range wantGroups {
		if len(comps[g]) != len(want) {
			t.Fatalf("component %d = %v, want %v", g, comps[g], want)
		}
		for k := range want {
			if comps[g][k] != want[k] {
				t.Fatalf("component %d = %v, want %v", g, comps[g], want)
			}
		}
	}
	// Reversed input order must be preserved within components too.
	rev := in.labelComponents([]Label{4, 3, 2, 1, 0})
	if rev[0][0] != 4 || rev[1][0] != 3 || rev[1][1] != 2 || rev[2][0] != 1 || rev[2][1] != 0 {
		t.Fatalf("reversed components = %v", rev)
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
	want := make([][]int, len(instances))
	for k, in := range instances {
		want[k] = in.ScanPlus(lm, OrderByID).Selected
	}
	for round := 0; round < 20; round++ {
		k := rng.Intn(len(instances))
		in := instances[k]
		var got *Cover
		if round%2 == 0 {
			got = in.ScanPlus(lm, OrderByID)
		} else {
			got = in.ScanPlusParallel(lm, OrderByID, 4)
		}
		if len(got.Selected) != len(want[k]) {
			t.Fatalf("round %d instance %d: got %v want %v", round, k, got.Selected, want[k])
		}
		for i := range want[k] {
			if got.Selected[i] != want[k][i] {
				t.Fatalf("round %d instance %d: got %v want %v", round, k, got.Selected, want[k])
			}
		}
	}
}
