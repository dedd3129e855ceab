package core

import (
	"math"
	"testing"
)

// mk builds a post with the given value and labels.
func mk(id int64, v float64, labels ...Label) Post {
	return Post{ID: id, Value: v, Labels: labels}
}

// inst builds an instance from posts, panicking on invalid input.
func inst(t *testing.T, numLabels int, posts ...Post) *Instance {
	t.Helper()
	in, err := NewInstance(posts, numLabels)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

func TestDictionaryIntern(t *testing.T) {
	var d Dictionary
	a := d.Intern("obama")
	b := d.Intern("economy")
	if a == b {
		t.Fatalf("distinct names interned to same label %d", a)
	}
	if got := d.Intern("obama"); got != a {
		t.Errorf("re-intern obama = %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "obama" || d.Name(b) != "economy" {
		t.Errorf("Name round-trip failed: %q %q", d.Name(a), d.Name(b))
	}
	if _, ok := d.Lookup("senate"); ok {
		t.Error("Lookup of uninterned name succeeded")
	}
	if id, ok := d.Lookup("economy"); !ok || id != b {
		t.Errorf("Lookup(economy) = %d,%v want %d,true", id, ok, b)
	}
	if got := d.Names(); len(got) != 2 || got[0] != "obama" {
		t.Errorf("Names() = %v", got)
	}
}

func TestNewInstanceSortsAndDeduplicates(t *testing.T) {
	in := inst(t, 3,
		mk(3, 5.0, 2, 0, 2, 0), // duplicates dropped, labels sorted
		mk(1, 1.0, 1),
		mk(2, 3.0, 0),
	)
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	wantOrder := []int64{1, 2, 3}
	for i, id := range wantOrder {
		if got := in.Post(i).ID; got != id {
			t.Errorf("post %d has ID %d, want %d", i, got, id)
		}
	}
	if got := in.Post(2).Labels; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("post 3 labels = %v, want [0 2]", got)
	}
	if lp := in.LabelPosts(0); len(lp) != 2 || lp[0] != 1 || lp[1] != 2 {
		t.Errorf("LP(0) = %v, want [1 2]", lp)
	}
	if lp := in.LabelPosts(1); len(lp) != 1 || lp[0] != 0 {
		t.Errorf("LP(1) = %v, want [0]", lp)
	}
}

func TestNewInstanceStableTieOrder(t *testing.T) {
	in := inst(t, 1, mk(20, 1.0, 0), mk(10, 1.0, 0))
	if in.Post(0).ID != 10 || in.Post(1).ID != 20 {
		t.Errorf("equal-value posts not ordered by ID: %d then %d", in.Post(0).ID, in.Post(1).ID)
	}
}

func TestNewInstanceRejectsBadInput(t *testing.T) {
	cases := []struct {
		name      string
		posts     []Post
		numLabels int
	}{
		{"nan value", []Post{mk(1, math.NaN(), 0)}, 1},
		{"pos inf", []Post{mk(1, math.Inf(1), 0)}, 1},
		{"neg inf", []Post{mk(1, math.Inf(-1), 0)}, 1},
		{"label out of range", []Post{mk(1, 0, 5)}, 2},
		{"negative label", []Post{mk(1, 0, -1)}, 2},
		{"negative label count", []Post{mk(1, 0, 0)}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewInstance(tc.posts, tc.numLabels); err == nil {
				t.Errorf("NewInstance accepted %s", tc.name)
			}
		})
	}
}

func TestEmptyInstance(t *testing.T) {
	in := inst(t, 2)
	if in.Len() != 0 || in.Pairs() != 0 || in.OverlapRate() != 0 || in.MaxLabelsPerPost() != 0 {
		t.Errorf("empty instance stats: len=%d pairs=%d overlap=%v s=%d",
			in.Len(), in.Pairs(), in.OverlapRate(), in.MaxLabelsPerPost())
	}
	for _, c := range []*Cover{in.Scan(FixedLambda(1)), in.ScanPlus(FixedLambda(1), OrderByID), in.GreedySC(FixedLambda(1))} {
		if c.Size() != 0 {
			t.Errorf("%s on empty instance returned %d posts", c.Algorithm, c.Size())
		}
	}
	if c, err := in.OPT(1, nil); err != nil || c.Size() != 0 {
		t.Errorf("OPT on empty instance: %v size=%d", err, c.Size())
	}
}

func TestUnlabeledPostsAreVacuouslyCovered(t *testing.T) {
	in := inst(t, 1, mk(1, 0.0), mk(2, 10.0, 0))
	lm := FixedLambda(1)
	for _, c := range []*Cover{in.Scan(lm), in.GreedySC(lm)} {
		if c.Size() != 1 {
			t.Errorf("%s = %d posts, want 1 (unlabeled post needs no cover)", c.Algorithm, c.Size())
		}
		if err := in.VerifyCover(lm, c.Selected); err != nil {
			t.Errorf("%s cover invalid: %v", c.Algorithm, err)
		}
	}
	opt, err := in.OPT(1, nil)
	if err != nil || opt.Size() != 1 {
		t.Errorf("OPT = %d, %v; want 1 post", opt.Size(), err)
	}
}

func TestOverlapRateAndPairs(t *testing.T) {
	in := inst(t, 3,
		mk(1, 0, 0),
		mk(2, 1, 0, 1),
		mk(3, 2, 0, 1, 2),
		mk(4, 3), // unlabeled: excluded from overlap rate
	)
	if got := in.Pairs(); got != 6 {
		t.Errorf("Pairs = %d, want 6", got)
	}
	if got := in.OverlapRate(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("OverlapRate = %v, want 2.0", got)
	}
	if got := in.MaxLabelsPerPost(); got != 3 {
		t.Errorf("MaxLabelsPerPost = %d, want 3", got)
	}
}

func TestWindowInLabel(t *testing.T) {
	in := inst(t, 1, mk(1, 1, 0), mk(2, 2, 0), mk(3, 5, 0), mk(4, 9, 0))
	cases := []struct {
		v, r     float64
		from, to int
	}{
		{5, 5, 0, 4},
		{3.5, 1.5, 1, 3},
		{3.7, 1.2, 2, 2}, // empty
		{5, 0, 2, 3},     // inclusive bounds
		{3, 2, 0, 3},     // 1 and 5 both exactly r away
		{7, 2, 2, 4},
		{15, 5, 4, 4},
		{-2.5, 2.5, 0, 0},
	}
	for _, tc := range cases {
		from, to := in.windowInLabel(0, tc.v, tc.r)
		if from != tc.from || to != tc.to {
			t.Errorf("windowInLabel(%v,%v) = [%d,%d), want [%d,%d)", tc.v, tc.r, from, to, tc.from, tc.to)
		}
	}
}

// TestWithinRangeMatchesLinearScan pins WithinRange to the positions a
// linear pass of Within accepts, over sorted slices with duplicates, grid
// values whose gaps round to either side of λ, and ±1 ulp neighbours.
func TestWithinRangeMatchesLinearScan(t *testing.T) {
	up, down := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) },
		func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	seq := func(den float64, ks ...float64) []float64 {
		out := make([]float64, len(ks))
		for i, k := range ks {
			out[i] = k / den
		}
		return out
	}
	cases := []struct {
		vals []float64
		r    float64
	}{
		{[]float64{1, 2, 2, 2, 5, 9, 9}, 3},
		{[]float64{0, 0, 0}, 0},
		{[]float64{1, 2, 2, 5}, -1}, // covers nothing, not even equal values
		{seq(6, 934, 934, 1200, 2734, 2734, 2735, 3000), 300},
		{seq(7, 1, 8, 15, 22, 22, 29), 1},
		{seq(10, 1, 3, 11, 13, 21, 23, 31), 1},
		{[]float64{down(0.3), 0.3, up(0.3), down(1.3), 1.3, up(1.3)}, 1},
	}
	for _, tc := range cases {
		probes := append([]float64{-1, 1e9}, tc.vals...)
		for _, v := range tc.vals {
			probes = append(probes, up(v), down(v), v+tc.r, v-tc.r)
		}
		for _, v := range probes {
			from, to := WithinRange(len(tc.vals), func(k int) float64 { return tc.vals[k] }, v, tc.r)
			for k, w := range tc.vals {
				if want, got := Within(v, w, tc.r), k >= from && k < to; got != want {
					t.Errorf("vals %v r=%v v=%v: WithinRange = [%d,%d), position %d (%v) Within = %v",
						tc.vals, tc.r, v, from, to, k, w, want)
				}
			}
		}
	}
}

func TestHasLabel(t *testing.T) {
	labels := []Label{1, 3, 5, 9}
	for _, a := range labels {
		if !hasLabel(labels, a) {
			t.Errorf("hasLabel(%v, %d) = false", labels, a)
		}
	}
	for _, a := range []Label{0, 2, 4, 8, 10} {
		if hasLabel(labels, a) {
			t.Errorf("hasLabel(%v, %d) = true", labels, a)
		}
	}
	if hasLabel(nil, 0) {
		t.Error("hasLabel(nil, 0) = true")
	}
}
