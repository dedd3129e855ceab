package index

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

func TestAddAndTermQuery(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 10, Text: "obama speaks at the senate"},
		Doc{ID: 2, Time: 20, Text: "markets rally on jobs report"},
		Doc{ID: 3, Time: 30, Text: "obama budget plan stalls in senate"},
	)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.TermQuery("obama", 0, 100)
	if !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("TermQuery(obama) = %v, want [0 2]", got)
	}
	if got := ix.TermQuery("obama", 15, 100); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("time-filtered TermQuery = %v, want [2]", got)
	}
	if got := ix.TermQuery("nonexistent", 0, 100); len(got) != 0 {
		t.Errorf("TermQuery(nonexistent) = %v", got)
	}
	if df := ix.DocFreq("senate"); df != 2 {
		t.Errorf("DocFreq(senate) = %d, want 2", df)
	}
}

func TestStopwordsNotIndexed(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 0, Text: "the and of senate"})
	if ix.DocFreq("the") != 0 || ix.DocFreq("and") != 0 {
		t.Error("stopwords were indexed")
	}
	if ix.DocFreq("senate") != 1 {
		t.Error("content word missing")
	}
}

func TestHashtagsIndexed(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 1, Time: 0, Text: "watching #obama on tv"})
	if got := ix.TermQuery("#obama", 0, 1); len(got) != 1 {
		t.Errorf("hashtag query = %v", got)
	}
	if got := ix.TermQuery("obama", 0, 1); len(got) != 0 {
		t.Errorf("bare term matched hashtag: %v", got)
	}
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

func TestAnyQuery(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 1, Text: "obama economy"},
		Doc{ID: 2, Time: 2, Text: "senate votes"},
		Doc{ID: 3, Time: 3, Text: "weather report"},
		Doc{ID: 4, Time: 4, Text: "economy slows"},
	)
	got := ix.AnyQuery([]string{"obama", "economy", "senate"}, 0, 10)
	if !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Errorf("AnyQuery = %v, want [0 1 3] (deduplicated, sorted)", got)
	}
	if got := ix.AnyQuery([]string{"economy"}, 3.5, 10); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("ranged AnyQuery = %v, want [3]", got)
	}
	if got := ix.AnyQuery(nil, 0, 10); len(got) != 0 {
		t.Errorf("empty AnyQuery = %v", got)
	}
}

func TestSearchRanking(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 1, Text: "obama obama obama speech"},
		Doc{ID: 2, Time: 2, Text: "obama mentioned once in passing"},
		Doc{ID: 3, Time: 3, Text: "unrelated sports news"},
		Doc{ID: 4, Time: 4, Text: "obama economy speech economy"},
	)
	hits := ix.Search("obama economy", 10, 0, 10)
	if len(hits) != 3 {
		t.Fatalf("Search returned %d hits, want 3", len(hits))
	}
	// Doc 4 matches both query terms and must rank first.
	if hits[0].Pos != 3 {
		t.Errorf("top hit = pos %d, want 3 (doc 4)", hits[0].Pos)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("hits not sorted by score: %v", hits)
		}
	}
}

func TestSearchTopKAndRange(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		text := "filler"
		if i%2 == 0 {
			text = "target term here"
		}
		if err := ix.Add(Doc{ID: int64(i), Time: float64(i), Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	hits := ix.Search("target", 5, 0, 100)
	if len(hits) != 5 {
		t.Errorf("top-5 returned %d hits", len(hits))
	}
	hits = ix.Search("target", 100, 10, 20)
	if len(hits) != 6 { // even times 10..20: 10,12,...,20
		t.Errorf("ranged search returned %d hits, want 6", len(hits))
	}
	if got := ix.Search("target", 0, 0, 100); got != nil {
		t.Errorf("k=0 search = %v", got)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = ix.Add(Doc{ID: int64(i), Time: float64(i), Text: fmt.Sprintf("post number %d obama", i)})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = ix.TermQuery("obama", 0, 1e9)
				_ = ix.Search("obama post", 10, 0, 1e9)
				_ = ix.Len()
			}
		}()
	}
	wg.Wait()
	if got := ix.DocFreq("obama"); got != 2000 {
		t.Errorf("DocFreq(obama) = %d, want 2000", got)
	}
}

func TestRangeFilterBoundaries(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 1, Text: "x"},
		Doc{ID: 2, Time: 2, Text: "x"},
		Doc{ID: 3, Time: 3, Text: "x"},
	)
	cases := []struct {
		lo, hi float64
		want   int
	}{
		{1, 3, 3}, {1, 1, 1}, {1.5, 2.5, 1}, {4, 9, 0}, {0, 0.5, 0},
	}
	for _, tc := range cases {
		if got := len(ix.TermQuery("x", tc.lo, tc.hi)); got != tc.want {
			t.Errorf("TermQuery range [%v,%v] = %d docs, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestDocRoundTrip(t *testing.T) {
	ix := buildIndex(t, Doc{ID: 7, Time: 42, Text: "round trip"})
	got := ix.Doc(0)
	if got.ID != 7 || got.Time != 42 || got.Text != "round trip" {
		t.Errorf("Doc(0) = %+v", got)
	}
	if ix.Terms() != 2 {
		t.Errorf("Terms = %d, want 2", ix.Terms())
	}
}

func BenchmarkAdd(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	words := []string{"obama", "senate", "economy", "market", "sports", "game", "vote", "budget", "news", "report"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		_ = ix.Add(Doc{ID: int64(i), Time: float64(i), Text: text})
	}
}

func BenchmarkTermQuery(b *testing.B) {
	ix := New()
	for i := 0; i < 100000; i++ {
		text := "filler"
		if i%10 == 0 {
			text = "obama news"
		}
		_ = ix.Add(Doc{ID: int64(i), Time: float64(i), Text: text})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.TermQuery("obama", float64(i%90000), float64(i%90000+10000))
	}
}

func TestAllQuery(t *testing.T) {
	ix := buildIndex(t,
		Doc{ID: 1, Time: 1, Text: "obama economy speech"},
		Doc{ID: 2, Time: 2, Text: "obama sports outing"},
		Doc{ID: 3, Time: 3, Text: "economy outlook grim"},
		Doc{ID: 4, Time: 4, Text: "obama economy plan again"},
	)
	got := ix.AllQuery([]string{"obama", "economy"}, 0, 10)
	if !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Errorf("AllQuery = %v, want [0 3]", got)
	}
	if got := ix.AllQuery([]string{"obama", "economy"}, 2, 10); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("ranged AllQuery = %v, want [3]", got)
	}
	if got := ix.AllQuery([]string{"obama", "zebra"}, 0, 10); got != nil {
		t.Errorf("AND with unknown term = %v", got)
	}
	if got := ix.AllQuery(nil, 0, 10); got != nil {
		t.Errorf("empty AND = %v", got)
	}
	if got := ix.AllQuery([]string{"obama"}, 0, 10); len(got) != 3 {
		t.Errorf("single-term AND = %v", got)
	}
}

func TestSegmentSealing(t *testing.T) {
	ix := NewWithSegmentSize(4)
	for i := 0; i < 10; i++ {
		if err := ix.Add(Doc{ID: int64(i), Time: float64(i), Text: fmt.Sprintf("word%d obama", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Segments(); got != 3 { // 4 + 4 + 2
		t.Errorf("segments = %d, want 3", got)
	}
	// Queries span segment boundaries transparently.
	if got := ix.TermQuery("obama", 0, 100); len(got) != 10 {
		t.Errorf("cross-segment TermQuery = %d docs", len(got))
	}
	for i := int32(0); i < 10; i++ {
		if d := ix.Doc(i); d.ID != int64(i) {
			t.Errorf("Doc(%d).ID = %d", i, d.ID)
		}
	}
	if got := ix.DocFreq("obama"); got != 10 {
		t.Errorf("cross-segment DocFreq = %d", got)
	}
	// Boolean queries across segments.
	if got := ix.AllQuery([]string{"obama", "word7"}, 0, 100); len(got) != 1 || got[0] != 7 {
		t.Errorf("cross-segment AllQuery = %v", got)
	}
	hits := ix.Search("word3 obama", 2, 0, 100)
	if len(hits) != 2 || hits[0].Pos != 3 {
		t.Errorf("cross-segment Search = %v", hits)
	}
}
