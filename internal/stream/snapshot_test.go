package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"mqdp/internal/core"
)

// genPosts builds a deterministic random post stream in timestamp order.
func genPosts(seed int64, n, numLabels int) []core.Post {
	rng := rand.New(rand.NewSource(seed))
	posts := make([]core.Post, n)
	t := 0.0
	for i := range posts {
		t += rng.Float64() * 3
		nl := 1 + rng.Intn(3)
		labels := make([]core.Label, 0, nl)
		for len(labels) < nl {
			a := core.Label(rng.Intn(numLabels))
			dup := false
			for _, b := range labels {
				dup = dup || a == b
			}
			if !dup {
				labels = append(labels, a)
			}
		}
		posts[i] = core.Post{ID: int64(i + 1), Value: t, Labels: labels}
	}
	return posts
}

func newProc(t *testing.T, algo string, numLabels int) Processor {
	t.Helper()
	var p Processor
	var err error
	switch algo {
	case "scan":
		p, err = NewScan(numLabels, 4, 2, false)
	case "scan+":
		p, err = NewScan(numLabels, 4, 2, true)
	case "greedy":
		p, err = NewGreedy(numLabels, 4, 2, false)
	case "greedy+":
		p, err = NewGreedy(numLabels, 4, 2, true)
	case "instant":
		p, err = NewInstant(numLabels, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCaptureRestoreEquivalence is the correctness core of snapshot-based
// recovery: capturing a processor mid-stream and restoring it must change
// nothing about the emissions of the remaining stream, for every processor
// and every split point.
func TestCaptureRestoreEquivalence(t *testing.T) {
	const numLabels = 6
	posts := genPosts(42, 120, numLabels)
	for _, algo := range []string{"scan", "scan+", "greedy", "greedy+", "instant"} {
		t.Run(algo, func(t *testing.T) {
			ref := newProc(t, algo, numLabels)
			want, err := Run(posts, ref)
			if err != nil {
				t.Fatal(err)
			}
			for split := 0; split <= len(posts); split += 7 {
				p := newProc(t, algo, numLabels)
				var got []Emission
				for _, post := range posts[:split] {
					es, err := p.Process(post)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, es...)
				}
				st, err := CaptureProcessor(p)
				if err != nil {
					t.Fatalf("split %d: capture: %v", split, err)
				}
				// Keep driving the original past the capture point: the
				// snapshot must be an unaffected deep copy.
				for _, post := range posts[split:] {
					if _, err := p.Process(post); err != nil {
						t.Fatal(err)
					}
				}
				restored, err := RestoreProcessor(st)
				if err != nil {
					t.Fatalf("split %d: restore: %v", split, err)
				}
				if restored.Name() != ref.Name() {
					t.Fatalf("split %d: restored name %q, want %q", split, restored.Name(), ref.Name())
				}
				for _, post := range posts[split:] {
					es, err := restored.Process(post)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, es...)
				}
				got = append(got, restored.Flush()...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s split %d: spliced run emitted %d posts, uninterrupted %d (or differing decisions)",
						algo, split, len(got), len(want))
				}
			}
		})
	}
}

// TestGreedyRestoresParentSelected loads a GreedyState in the shape older
// snapshots wrote — every emitted value per label, in gain order, not
// sorted — and checks that the largest one covers the next arrival; a
// capture then writes that one value alone.
func TestGreedyRestoresParentSelected(t *testing.T) {
	old := &ProcState{Greedy: &GreedyState{
		Lambda: 1.5, Tau: 3,
		Clock:    ClockState{Now: 3, Started: true},
		Selected: [][]float64{{2, 0}, nil},
	}}
	p, err := RestoreProcessor(old)
	if err != nil {
		t.Fatal(err)
	}
	if es := mustProcess(t, p, mk(9, 3.2, 0)); len(es) != 0 {
		t.Fatalf("arrival emitted %+v", es)
	}
	if es := p.Flush(); len(es) != 0 {
		t.Errorf("arrival 1.2 after the emission at 2 (λ=1.5) was treated as uncovered: flush emitted %+v", es)
	}
	st, err := CaptureProcessor(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{2}, nil}; !reflect.DeepEqual(st.Greedy.Selected, want) {
		t.Errorf("captured Selected = %v, want %v", st.Greedy.Selected, want)
	}
}

func TestCaptureRestoreRejectsUnknown(t *testing.T) {
	if _, err := CaptureProcessor(nil); err == nil {
		t.Fatal("CaptureProcessor(nil) should fail")
	}
	if _, err := RestoreProcessor(nil); err == nil {
		t.Fatal("RestoreProcessor(nil) should fail")
	}
	if _, err := RestoreProcessor(&ProcState{}); err == nil {
		t.Fatal("RestoreProcessor(empty) should fail")
	}
}

func TestTopKStateRoundTrip(t *testing.T) {
	v := NewTopK[string](3, 10)
	for i := 0; i < 20; i++ {
		v.Insert(TopKItem[string]{Value: float64(i), Coverage: i % 4, Seq: int64(i), Payload: "p"})
	}
	st := v.State()
	r := RestoreTopK(st)
	if r.Version() != v.Version() || r.Len() != v.Len() {
		t.Fatalf("restored version/len %d/%d, want %d/%d", r.Version(), r.Len(), v.Version(), v.Len())
	}
	if !reflect.DeepEqual(r.Items(), v.Items()) {
		t.Fatal("restored visible view differs")
	}
	// Both must evolve identically from here.
	it := TopKItem[string]{Value: 25, Coverage: 9, Seq: 99, Payload: "x"}
	if v.Insert(it) != r.Insert(it) || v.Advance(30) != r.Advance(30) {
		t.Fatal("restored view diverged on identical input")
	}
	if !reflect.DeepEqual(r.Items(), v.Items()) {
		t.Fatal("restored view items diverged after inserts")
	}
}
