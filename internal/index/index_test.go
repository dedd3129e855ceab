package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

func buildIndex(t *testing.T, docs ...Doc) *Index {
	t.Helper()
	ix := New()
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatalf("Add(%+v): %v", d, err)
		}
	}
	return ix
}

func expectQuery(t *testing.T, ix *Index, terms []string, lo, hi float64, want ...int32) {
	t.Helper()
	if got := ix.AnyQuery(terms, lo, hi); !slices.Equal(got, want) {
		t.Errorf("AnyQuery(%q, %v, %v) = %v, want %v", terms, lo, hi, got, want)
	}
}

func TestAddAndTermQuery(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 10, Text: "obama speaks at the senate"},
		Doc{ID: 2, Time: 20, Text: "markets rally on jobs report"},
		Doc{ID: 3, Time: 30, Text: "obama budget plan stalls in senate senate"},
	)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	expectQuery(t, ix, []string{"obama"}, 0, 100, 0, 2)
	expectQuery(t, ix, []string{"obama"}, 15, 100, 2)
	expectQuery(t, ix, []string{"nonexistent"}, 0, 100)
	// A repeated token posts its document once.
	if got := ix.postings["senate"]; !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("postings(senate) = %v, want [0 2]", got)
	}
}

func TestStopwordsNotIndexed(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 0, Text: "the and of senate"})
	expectQuery(t, ix, []string{"the", "and"}, 0, 1)
	expectQuery(t, ix, []string{"senate"}, 0, 1, 0)
}

func TestHashtagsIndexed(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 0, Text: "watching #obama on tv"})
	expectQuery(t, ix, []string{"#obama"}, 0, 1, 0)
	expectQuery(t, ix, []string{"obama"}, 0, 1)
}

func TestAddRejectsOutOfOrder(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 10, Text: "x"})
	if err := ix.Add(Doc{ID: 2, Time: 5, Text: "y"}); !errors.Is(err, ErrTimeOrder) {
		t.Errorf("out-of-order Add error = %v, want ErrTimeOrder", err)
	}
	if err := ix.Add(Doc{ID: 3, Time: 10, Text: "z"}); err != nil {
		t.Errorf("equal-timestamp Add rejected: %v", err)
	}
}

// TestAddRejectsNaNTime pins that a NaN timestamp, which compares false
// with every time, cannot switch off the order check.
func TestAddRejectsNaNTime(t *testing.T) {
	if err := New().Add(Doc{ID: 1, Time: math.NaN(), Text: "obama"}); !errors.Is(err, ErrTimeOrder) {
		t.Errorf("NaN first Add error = %v, want ErrTimeOrder", err)
	}
	ix := buildIndex(t, Doc{ID: 1, Time: 100, Text: "obama"})
	for _, tm := range []float64{math.NaN(), 5, 50} {
		if err := ix.Add(Doc{ID: 2, Time: tm, Text: "obama"}); !errors.Is(err, ErrTimeOrder) {
			t.Errorf("Add(Time %v) after 100 error = %v, want ErrTimeOrder", tm, err)
		}
	}
}

func TestAnyQuery(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 1, Text: "obama economy"},
		Doc{ID: 2, Time: 2, Text: "senate votes"},
		Doc{ID: 3, Time: 3, Text: "weather report"},
		Doc{ID: 4, Time: 4, Text: "economy slows"},
	)
	expectQuery(t, ix, []string{"obama", "economy", "senate"}, 0, 10, 0, 1, 3)
	expectQuery(t, ix, []string{"economy"}, 3.5, 10, 3)
	expectQuery(t, ix, nil, 0, 10)
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if got := ix.AnyQuery([]string{"obama", "post"}, 0, 1e9); len(got) > 0 {
					_, _, _ = ix.Doc(got[len(got)-1]), ix.Len(), ix.Terms()
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		_ = ix.Add(Doc{ID: int64(i), Time: float64(i), Text: fmt.Sprintf("post number %d obama", i)})
	}
	wg.Wait()
	if got := ix.AnyQuery([]string{"obama"}, 0, 1e9); len(got) != 2000 {
		t.Errorf("AnyQuery(obama) = %d docs, want 2000", len(got))
	}
}

func TestRangeFilterBoundaries(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 1, Text: "x"}, Doc{ID: 2, Time: 2, Text: "x"}, Doc{ID: 3, Time: 3, Text: "x"})
	for _, w := range [][3]float64{{1, 3, 3}, {1, 1, 1}, {1.5, 2.5, 1}, {4, 9, 0}, {0, 0.5, 0}, {3, 1, 0}, {math.NaN(), 3, 0}, {1, math.NaN(), 0}} {
		if got := len(ix.AnyQuery([]string{"x"}, w[0], w[1])); got != int(w[2]) {
			t.Errorf("AnyQuery range [%v,%v] = %d docs, want %v", w[0], w[1], got, w[2])
		}
	}
}

func TestDocRoundTrip(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 7, Time: 42, Text: "round trip"})
	if got := ix.Doc(0); got != (Doc{ID: 7, Time: 42, Text: "round trip"}) {
		t.Errorf("Doc(0) = %+v", got)
	}
	if ix.Terms() != 2 {
		t.Errorf("Terms = %d, want 2", ix.Terms())
	}
}
