package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"mqdp/internal/textutil"
)

// scanQuery is the linear-scan reference for AnyQuery. It re-tokenizes every
// document in [lo, hi] and shares nothing with the posting lists.
func scanQuery(ix *Index, terms []string, lo, hi float64) []int32 {
	var out []int32
	for pos := int32(0); int(pos) < ix.Len(); pos++ {
		d := ix.Doc(pos)
		if !(d.Time >= lo && d.Time <= hi) {
			continue
		}
		for _, tok := range textutil.Tokenize(d.Text) {
			if !(tok.Kind == textutil.Word && textutil.IsStopword(tok.Text)) && slices.Contains(terms, tok.Text) {
				out = append(out, pos)
				break
			}
		}
	}
	return out
}

// checkScan fails t unless AnyQuery agrees with scanQuery.
func checkScan(t testing.TB, ix *Index, terms []string, lo, hi float64) {
	t.Helper()
	if got, want := ix.AnyQuery(terms, lo, hi), scanQuery(ix, terms, lo, hi); !slices.Equal(got, want) {
		t.Fatalf("AnyQuery(%q, %v, %v) = %v, scan = %v", terms, lo, hi, got, want)
	}
}

// randCorpus builds a deterministic random corpus: vocab words with a skewed
// (roughly zipfian) draw and clustered timestamps.
func randCorpus(rng *rand.Rand, n int) *Index {
	ix, now := New(), 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64() * 2
		text := ""
		for w := rng.Intn(5); w >= 0; w-- {
			text += fmt.Sprintf("w%d ", min(int(rng.ExpFloat64()*4), 40))
		}
		if rng.Intn(10) == 0 {
			text += "#tag"
		}
		if err := ix.Add(Doc{ID: int64(i), Time: now, Text: text}); err != nil {
			panic(err)
		}
	}
	return ix
}

// randWindow picks a random time window; some are empty, a single point or
// inverted.
func randWindow(rng *rand.Rand, span float64) (lo, hi float64) {
	a, b := rng.Float64()*span, rng.Float64()*span
	w := [...][2]float64{{-10, -1}, {span + 1, span + 10}, {0, span}, {a, a}, {span * 0.7, span * 0.3}, {a, b}, {min(a, b), max(a, b)}}[rng.Intn(7)]
	return w[0], w[1]
}

// TestQueryEquivalenceProperty pins AnyQuery to the linear scan over random
// corpora, term sets and windows.
func TestQueryEquivalenceProperty(t *testing.T) {
	// The inverted window a fuzzer once found over this corpus.
	checkScan(t, randCorpus(rand.New(rand.NewSource(11)), 400), []string{"w0"}, 11, 2.857142857142857)
	rng := rand.New(rand.NewSource(7))
	w := func(n int) string { return fmt.Sprintf("w%d", rng.Intn(n)) }
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(300)
		ix := randCorpus(rng, n)
		span := ix.Doc(int32(n-1)).Time + 1
		for q := 0; q < 40; q++ {
			lo, hi := randWindow(rng, span)
			checkScan(t, ix, []string{w(45)}, lo, hi)
			checkScan(t, ix, []string{w(45), w(10), w(3), "#tag"}, lo, hi)
		}
	}
}

// FuzzTermQueryEquivalence fuzzes a one-term query and its window over a
// fixed corpus against the linear scan.
func FuzzTermQueryEquivalence(f *testing.F) {
	ix := randCorpus(rand.New(rand.NewSource(11)), 400)
	span := ix.Doc(int32(ix.Len() - 1)).Time
	f.Add("w0", 0.0, 10.0)
	f.Add("w3", -5.0, 1e9)
	f.Add("#tag", span/3, span/2)
	f.Add("missing", 0.0, span)
	f.Add("w1", span/2, span/4) // inverted window overlapping the data
	f.Fuzz(func(t *testing.T, term string, lo, hi float64) {
		checkScan(t, ix, []string{term}, lo, hi)
	})
}

// TestConcurrentEquivalenceWithWriter queries the frozen prefix against a
// hot writer under -race: the answer must match the scan at all times.
func TestConcurrentEquivalenceWithWriter(t *testing.T) {
	ix := randCorpus(rand.New(rand.NewSource(3)), 500)
	terms, hi := []string{"w3", "w5"}, ix.Doc(499).Time
	want := scanQuery(ix, terms, 0, hi)
	var done atomic.Bool
	go func() {
		for i := 0; i < 3000; i++ {
			_ = ix.Add(Doc{ID: int64(500 + i), Time: hi + 1 + float64(i), Text: "w3 w5 fresh"})
		}
		done.Store(true)
	}()
	for !done.Load() {
		if got := ix.AnyQuery(terms, 0, hi); !slices.Equal(got, want) {
			t.Fatalf("prefix AnyQuery diverged: %d vs %d docs", len(got), len(want))
		}
	}
}

// BenchmarkAnyQueryRange measures a three-term OR over 0.5% of a 200k-doc
// corpus, the narrow window of the paper's real-time queries.
func BenchmarkAnyQueryRange(b *testing.B) {
	ix := randCorpus(rand.New(rand.NewSource(1)), 200_000)
	span := ix.Doc(int32(ix.Len() - 1)).Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ix.AnyQuery([]string{"w0", "w7", "#tag"}, span*0.75, span*0.755)) == 0 {
			b.Fatal("no hits")
		}
	}
}
