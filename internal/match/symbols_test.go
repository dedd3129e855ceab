package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/route"
)

func symTopics(n, kwPer int) []Topic {
	topics := make([]Topic, n)
	for i := range topics {
		topics[i] = Topic{Name: fmt.Sprintf("t%d", i)}
		for k := 0; k < kwPer; k++ {
			topics[i].Keywords = append(topics[i].Keywords,
				Keyword{Text: fmt.Sprintf("kw%d", (i*kwPer+k)%(n*kwPer*2/3+1)), Weight: 1})
		}
	}
	return topics
}

// TestMatchSymbolsEquivalence drives random word streams through the
// string matcher, its symbol-compiled form and the union of its
// per-keyword SymbolLabels against the same shared table, asserting
// identical label sets — the routed fan-out's ground truth contract.
func TestMatchSymbolsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := route.NewTable()
	var matchers []*Matcher
	for i := 0; i < 8; i++ {
		m, err := NewMatcher(symTopics(2+rng.Intn(5), 1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		m.CompileSymbols(tab)
		matchers = append(matchers, m)
	}
	vocab := []string{"kw0", "kw1", "kw2", "kw3", "kw5", "kw9", "noise", "filler", "lunch"}
	var symBuf []uint32
	var dst []core.Label
	for trial := 0; trial < 500; trial++ {
		var words []string
		for n := rng.Intn(12); n >= 0; n-- {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		symBuf = route.DedupSyms(tab.AppendSyms(symBuf[:0], words))
		for mi, m := range matchers {
			want := m.MatchWords(words)
			got := m.MatchSymbolsInto(dst, symBuf)
			if len(got) != len(want) {
				t.Fatalf("trial %d matcher %d: symbols %v vs words %v", trial, mi, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d matcher %d: symbols %v vs words %v", trial, mi, got, want)
				}
			}
			if got != nil {
				dst = got[:0]
			}
			// The routed form: the sorted union of each present keyword's
			// posting labels is the match.
			var union []core.Label
			for _, sym := range symBuf {
				labels := m.SymbolLabels(sym)
				if !slices.IsSorted(labels) || len(slices.Compact(slices.Clone(labels))) != len(labels) {
					t.Fatalf("matcher %d: SymbolLabels(%d) = %v, want sorted and distinct", mi, sym, labels)
				}
				union = append(union, labels...)
			}
			slices.Sort(union)
			if union = slices.Compact(union); !slices.Equal(union, want) {
				t.Fatalf("trial %d matcher %d: posting labels %v vs words %v", trial, mi, union, want)
			}
		}
	}
}

// TestCompileSymbolsPostingKeys checks the returned symbols are exactly
// the matcher's distinct keywords, sorted and deduplicated.
func TestCompileSymbolsPostingKeys(t *testing.T) {
	tab := route.NewTable()
	m, err := NewMatcher([]Topic{
		{Name: "a", Keywords: []Keyword{{Text: "x", Weight: 1}, {Text: "y", Weight: 1}}},
		{Name: "b", Keywords: []Keyword{{Text: "y", Weight: 1}, {Text: "z", Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	syms := m.CompileSymbols(tab)
	if len(syms) != 3 {
		t.Fatalf("syms = %v, want 3 distinct", syms)
	}
	for i := 1; i < len(syms); i++ {
		if syms[i] <= syms[i-1] {
			t.Fatalf("syms not sorted/deduped: %v", syms)
		}
	}
	for _, w := range []string{"x", "y", "z"} {
		if got := tab.AppendSyms(nil, []string{w}); len(got) != 1 {
			t.Errorf("keyword %q not interned", w)
		}
	}
}

// TestMatchIntoAllocs pins the zero-alloc contract of the scratch-based
// match paths (the alloc-counting analogue of wire's TestStreamDecodeAllocs):
// with a caller-provided label scratch, the no-match path performs zero
// heap allocations, and the match path none beyond first scratch growth.
func TestMatchIntoAllocs(t *testing.T) {
	tab := route.NewTable()
	m, err := NewMatcher([]Topic{
		{Name: "politics", Keywords: []Keyword{{Text: "obama", Weight: 1}, {Text: "senate", Weight: 1}}},
		{Name: "sports", Keywords: []Keyword{{Text: "game", Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.CompileSymbols(tab)

	noMatch := []string{"irrelevant", "chatter", "about", "lunch"}
	hit := []string{"obama", "addresses", "the", "senate", "game"}
	scratch := make([]core.Label, 0, 8)

	if n := testing.AllocsPerRun(200, func() {
		if got := m.MatchWordsInto(scratch, noMatch); got != nil {
			t.Fatal("unexpected match")
		}
	}); n != 0 {
		t.Errorf("MatchWordsInto no-match allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		got := m.MatchWordsInto(scratch, hit)
		if len(got) != 2 {
			t.Fatalf("labels = %v", got)
		}
	}); n != 0 {
		t.Errorf("MatchWordsInto match allocs = %v, want 0", n)
	}

	var symBuf []uint32
	symBuf = route.DedupSyms(tab.AppendSyms(symBuf[:0], hit))
	if n := testing.AllocsPerRun(200, func() {
		got := m.MatchSymbolsInto(scratch, symBuf)
		if len(got) != 2 {
			t.Fatalf("labels = %v", got)
		}
	}); n != 0 {
		t.Errorf("MatchSymbolsInto allocs = %v, want 0", n)
	}
	noSyms := route.DedupSyms(tab.AppendSyms(nil, noMatch))
	if n := testing.AllocsPerRun(200, func() {
		if got := m.MatchSymbolsInto(scratch, noSyms); got != nil {
			t.Fatal("unexpected match")
		}
	}); n != 0 {
		t.Errorf("MatchSymbolsInto no-match allocs = %v, want 0", n)
	}

	// The tokenized form shares the same scratch contract.
	if n := testing.AllocsPerRun(200, func() {
		if got := m.MatchTokensInto(scratch, nil); got != nil {
			t.Fatal("unexpected match")
		}
	}); n != 0 {
		t.Errorf("MatchTokensInto no-match allocs = %v, want 0", n)
	}
}
