package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestOPTMatchesExhaustiveOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 250
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		in := randomInstance(rng, 10, 3, 18)
		lambda := float64(1 + rng.Intn(5))
		exact, err := in.Exhaustive(FixedLambda(lambda))
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			t.Fatalf("trial %d: OPT: %v", trial, err)
		}
		if err := in.VerifyCover(FixedLambda(lambda), opt.Selected); err != nil {
			t.Fatalf("trial %d: OPT cover invalid: %v (λ=%v posts=%+v)", trial, err, lambda, in.Posts())
		}
		if opt.Size() != exact.Size() {
			t.Fatalf("trial %d: OPT=%d exhaustive=%d (λ=%v posts=%+v)",
				trial, opt.Size(), exact.Size(), lambda, in.Posts())
		}
	}
}

func TestOPTNeverLargerThanApproximations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		in := randomInstance(rng, 12, 2, 24)
		lambda := float64(1 + rng.Intn(6))
		lm := FixedLambda(lambda)
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			t.Fatalf("OPT: %v", err)
		}
		for _, c := range []*Cover{in.Scan(lm), in.ScanPlus(lm, OrderByID), in.GreedySC(lm)} {
			if c.Size() < opt.Size() {
				t.Fatalf("trial %d: %s=%d beat OPT=%d", trial, c.Algorithm, c.Size(), opt.Size())
			}
		}
	}
}

func TestOPTSingleLabelEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(15)
		posts := make([]Post, n)
		for i := range posts {
			posts[i] = mk(int64(i), float64(rng.Intn(40)), 0)
		}
		in := inst(t, 1, posts...)
		lambda := float64(1 + rng.Intn(6))
		opt, err := in.OPT(lambda, nil)
		if err != nil {
			t.Fatalf("OPT: %v", err)
		}
		if scan := in.Scan(FixedLambda(lambda)); scan.Size() != opt.Size() {
			t.Fatalf("trial %d: scan=%d opt=%d for one label", trial, scan.Size(), opt.Size())
		}
	}
}

func TestOPTRejectsNegativeLambda(t *testing.T) {
	in := figure2(t)
	if _, err := in.OPT(-1, nil); !errors.Is(err, ErrBadLambda) {
		t.Errorf("OPT(-1) error = %v, want ErrBadLambda", err)
	}
}

func TestOPTWorkBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomInstance(rng, 30, 3, 10) // dense: many patterns
	_, err := in.OPT(5, &OPTOptions{MaxWork: 10})
	if !errors.Is(err, ErrOPTTooLarge) {
		t.Errorf("tiny work budget error = %v, want ErrOPTTooLarge", err)
	}
}

func TestOPTStateBudget(t *testing.T) {
	posts := make([]Post, 20)
	for i := range posts {
		posts[i] = mk(int64(i), float64(i), 0, 1, 2)
	}
	in := inst(t, 3, posts...)
	_, err := in.OPT(10, &OPTOptions{MaxStates: 4})
	if !errors.Is(err, ErrOPTTooLarge) {
		t.Errorf("tiny state budget error = %v, want ErrOPTTooLarge", err)
	}
}

func TestOPTExactValueKnownInstances(t *testing.T) {
	cases := []struct {
		name   string
		posts  []Post
		L      int
		lambda float64
		want   int
	}{
		{
			name:   "figure2",
			posts:  []Post{mk(1, 1, 0), mk(2, 2, 0), mk(3, 3, 0, 1), mk(4, 4, 1)},
			L:      2,
			lambda: 1,
			want:   2,
		},
		{
			name:   "single post",
			posts:  []Post{mk(1, 0, 0, 1)},
			L:      2,
			lambda: 1,
			want:   1,
		},
		{
			name: "two far apart same label",
			posts: []Post{
				mk(1, 0, 0), mk(2, 100, 0),
			},
			L:      1,
			lambda: 1,
			want:   2,
		},
		{
			name: "chain coverable by middles",
			posts: []Post{
				mk(1, 0, 0), mk(2, 1, 0), mk(3, 2, 0), mk(4, 3, 0), mk(5, 4, 0),
			},
			L:      1,
			lambda: 2,
			want:   1,
		},
		{
			name: "intersecting but not nested label sets",
			// Two nearby posts related to intersecting, non-nested label
			// sets: neither covers the other (§1's motivating case), so a
			// single selection cannot suffice.
			posts: []Post{
				mk(1, 0, 0, 1), mk(2, 0.5, 1, 2),
			},
			L:      3,
			lambda: 1,
			want:   2,
		},
		{
			name: "shared middle label set",
			posts: []Post{
				mk(1, 0, 0), mk(2, 1, 0, 1), mk(3, 2, 1),
			},
			L:      2,
			lambda: 1,
			want:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := inst(t, tc.L, tc.posts...)
			opt, err := in.OPT(tc.lambda, nil)
			if err != nil {
				t.Fatalf("OPT: %v", err)
			}
			if opt.Size() != tc.want {
				t.Errorf("OPT = %d (%v), want %d", opt.Size(), opt.Selected, tc.want)
			}
			if err := in.VerifyCover(FixedLambda(tc.lambda), opt.Selected); err != nil {
				t.Errorf("OPT cover invalid: %v", err)
			}
		})
	}
}

func TestExhaustiveRejectsLargeInstances(t *testing.T) {
	posts := make([]Post, maxExhaustivePosts+1)
	for i := range posts {
		posts[i] = mk(int64(i), float64(i), 0)
	}
	in := inst(t, 1, posts...)
	if _, err := in.Exhaustive(FixedLambda(1)); !errors.Is(err, ErrExhaustiveTooLarge) {
		t.Errorf("error = %v, want ErrExhaustiveTooLarge", err)
	}
}

func TestExhaustiveDirectionalModel(t *testing.T) {
	// Directional radii: the wide post can cover everything.
	in := inst(t, 1, mk(1, 0, 0), mk(2, 5, 0), mk(3, 10, 0))
	m := customLambda{radius: map[int]float64{0: 1, 1: 5, 2: 1}}
	exact, err := in.Exhaustive(m)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	if exact.Size() != 1 || exact.Selected[0] != 1 {
		t.Errorf("Exhaustive = %v, want the middle wide post", exact.Selected)
	}
	if err := in.VerifyCover(m, exact.Selected); err != nil {
		t.Errorf("cover invalid: %v", err)
	}
}

func TestOPTTrace(t *testing.T) {
	in := figure2(t)
	trace := &OPTTrace{}
	if _, err := in.OPT(1, &OPTOptions{Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if len(trace.StatesPerPost) != in.Len() {
		t.Fatalf("trace has %d layers, want %d", len(trace.StatesPerPost), in.Len())
	}
	if trace.Work <= 0 || trace.MaxStates <= 0 {
		t.Errorf("trace = %+v", trace)
	}
	for _, n := range trace.StatesPerPost {
		if n < 1 {
			t.Errorf("layer with %d states", n)
		}
		if n > trace.MaxStates {
			t.Errorf("layer %d exceeds recorded max %d", n, trace.MaxStates)
		}
	}
}
