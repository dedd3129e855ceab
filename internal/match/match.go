// Package match implements the posts/label matching module of the paper's
// Figure 1 architecture: user queries are topics (weighted keyword sets,
// e.g. from LDA), and a post matches a topic when it contains at least one
// of the topic's keywords — the matching rule of §7.1. The matcher projects
// raw posts into core.Post values on a chosen diversity dimension.
package match

import (
	"errors"
	"fmt"
	"sort"

	"mqdp/internal/core"
	"mqdp/internal/lda"
	"mqdp/internal/route"
	"mqdp/internal/sentiment"
	"mqdp/internal/textutil"
)

// Keyword is one weighted topic keyword.
type Keyword struct {
	Text   string
	Weight float64
}

// Topic is a user query: a named, weighted keyword set.
type Topic struct {
	Name     string
	Keywords []Keyword
}

// Dimension selects the diversity dimension a matched post is projected on.
type Dimension int

// Supported dimensions.
const (
	// ByTime uses the post timestamp (the paper's default).
	ByTime Dimension = iota
	// BySentiment uses lexicon polarity in [-1, 1].
	BySentiment
)

// Matcher matches post text against a fixed topic set. It is immutable
// after construction (and after the optional CompileSymbols) and safe for
// concurrent use.
type Matcher struct {
	topics []Topic
	byWord map[string][]weightedLabel // keyword -> topics containing it
	// bySym is the symbol-compiled form of byWord (see CompileSymbols):
	// matching compares dense uint32 symbols instead of hashing strings.
	bySym map[uint32][]weightedLabel
}

// weightedLabel pairs a topic with the weight of one of its keywords.
type weightedLabel struct {
	label  core.Label
	weight float64
}

// ErrNoTopics is returned when constructing a matcher without topics.
var ErrNoTopics = errors.New("match: no topics")

// NewMatcher builds a matcher where topic i answers to label i.
func NewMatcher(topics []Topic) (*Matcher, error) {
	if len(topics) == 0 {
		return nil, ErrNoTopics
	}
	m := &Matcher{topics: topics, byWord: make(map[string][]weightedLabel)}
	for ti, t := range topics {
		if len(t.Keywords) == 0 {
			return nil, fmt.Errorf("match: topic %d (%q) has no keywords", ti, t.Name)
		}
		seen := map[string]bool{}
		for _, kw := range t.Keywords {
			if kw.Text == "" || seen[kw.Text] {
				continue
			}
			seen[kw.Text] = true
			m.byWord[kw.Text] = append(m.byWord[kw.Text], weightedLabel{label: core.Label(ti), weight: kw.Weight})
		}
	}
	return m, nil
}

// NumTopics reports the topic (label) count.
func (m *Matcher) NumTopics() int { return len(m.topics) }

// Topic returns the topic behind a label.
func (m *Matcher) Topic(a core.Label) Topic { return m.topics[a] }

// Keywords returns the matcher's distinct keywords, sorted: the terms of
// the boolean-OR query that retrieves every post some topic matches.
func (m *Matcher) Keywords() []string {
	words := make([]string, 0, len(m.byWord))
	for w := range m.byWord {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// Match tokenizes text and returns the labels of every topic with at least
// one keyword present, sorted and deduplicated.
func (m *Matcher) Match(text string) []core.Label {
	var buf [32]textutil.Token
	return m.MatchTokens(textutil.AppendTokens(buf[:0], text))
}

// MatchWords is Match over pre-tokenized words.
func (m *Matcher) MatchWords(words []string) []core.Label {
	return m.MatchWordsInto(nil, words)
}

// MatchWordsInto is MatchWords appending into a caller-provided scratch
// slice (reusing its capacity): zero allocations when no keyword hits,
// and none beyond dst growth when some do. The result aliases dst, so
// callers that hand labels to a retaining consumer must copy first.
func (m *Matcher) MatchWordsInto(dst []core.Label, words []string) []core.Label {
	labels := dst[:0]
	for _, w := range words {
		for _, wl := range m.byWord[w] {
			labels = append(labels, wl.label)
		}
	}
	return dedupLabels(labels)
}

// MatchTokens is Match over a pre-computed tokenization — the tokenize-once
// path shared with the inverted index writer and the sentiment scorer.
func (m *Matcher) MatchTokens(tokens []textutil.Token) []core.Label {
	return m.MatchTokensInto(nil, tokens)
}

// MatchTokensInto is MatchTokens with a caller-provided label scratch; see
// MatchWordsInto for the aliasing contract.
func (m *Matcher) MatchTokensInto(dst []core.Label, tokens []textutil.Token) []core.Label {
	labels := dst[:0]
	for _, tok := range tokens {
		for _, wl := range m.byWord[tok.Text] {
			labels = append(labels, wl.label)
		}
	}
	return dedupLabels(labels)
}

// CompileSymbols interns every distinct keyword into t and builds the
// symbol-compiled match table, enabling MatchSymbolsInto: per-post
// matching then compares dense uint32 symbols instead of hashing keyword
// strings. It returns the matcher's distinct keyword symbols, sorted
// ascending — exactly the posting keys a routing index needs. Call once,
// before the matcher is shared across goroutines.
func (m *Matcher) CompileSymbols(t *route.Table) []uint32 {
	words := m.Keywords() // sorted: deterministic symbol assignment order
	syms := t.InternAll(make([]uint32, 0, len(words)), words)
	m.bySym = make(map[uint32][]weightedLabel, len(words))
	for i, w := range words {
		m.bySym[syms[i]] = m.byWord[w]
	}
	return route.DedupSyms(syms)
}

// MatchSymbolsInto is MatchWordsInto over symbol-mapped tokens: syms is
// the post's token set resolved through the same route.Table this matcher
// was compiled against (unknown tokens already dropped). Duplicate symbols
// are tolerated — labels are deduplicated regardless. Panics if
// CompileSymbols has not run.
func (m *Matcher) MatchSymbolsInto(dst []core.Label, syms []uint32) []core.Label {
	labels := dst[:0]
	for _, s := range syms {
		for _, wl := range m.bySym[s] {
			labels = append(labels, wl.label)
		}
	}
	return dedupLabels(labels)
}

// SymbolLabels returns the labels of every topic carrying the keyword that
// CompileSymbols interned as sym, sorted ascending (nil when sym is none of
// this matcher's keywords): the labels a routing posting under sym
// carries. The slice is fresh, so the caller may keep it.
func (m *Matcher) SymbolLabels(sym uint32) []core.Label {
	var labels []core.Label
	for _, wl := range m.bySym[sym] {
		labels = append(labels, wl.label)
	}
	return labels
}

// dedupLabels sorts labels and removes duplicates in place; empty in, nil
// out. Label lists are per-post tiny, so an allocation-free insertion sort
// replaces sort.Slice (whose closure allocates) and keeps the no-match
// and match paths alloc-free.
func dedupLabels(labels []core.Label) []core.Label {
	if len(labels) == 0 {
		return nil
	}
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j] < labels[j-1]; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	out := labels[:0]
	for i, a := range labels {
		if i == 0 || labels[i-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// Score is a topic-relevance score for one text.
type Score struct {
	Label core.Label
	// Value is the sum of the weights of the topic's distinct keywords
	// present in the text.
	Value float64
}

// MatchScores returns per-topic relevance scores (distinct matched keyword
// weights summed), sorted by label. Only topics with at least one match
// appear.
func (m *Matcher) MatchScores(words []string) []Score {
	type hit struct {
		word  string
		label core.Label
	}
	seen := map[hit]struct{}{}
	scores := map[core.Label]float64{}
	for _, w := range words {
		for _, wl := range m.byWord[w] {
			h := hit{word: w, label: wl.label}
			if _, dup := seen[h]; dup {
				continue // a repeated keyword counts once
			}
			seen[h] = struct{}{}
			scores[wl.label] += wl.weight
		}
	}
	out := make([]Score, 0, len(scores))
	for a, v := range scores {
		out = append(out, Score{Label: a, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// MatchThreshold returns the labels whose relevance score reaches theta —
// a stricter relevance rule than the paper's "contains at least one keyword"
// (which is the special case theta → 0 with unit weights).
func (m *Matcher) MatchThreshold(text string, theta float64) []core.Label {
	var out []core.Label
	for _, s := range m.MatchScores(textutil.Words(text)) {
		if s.Value >= theta {
			out = append(out, s.Label)
		}
	}
	return out
}

// PostFromDoc projects one document — its id, publication time and text —
// onto dim, returning false when no topic matches (such posts are
// irrelevant to every query and never enter MQDP).
func (m *Matcher) PostFromDoc(id int64, time float64, text string, dim Dimension) (core.Post, bool) {
	var buf [32]textutil.Token
	return m.PostFromTokens(id, time, text, textutil.AppendTokens(buf[:0], text), dim)
}

// PostFromTokens is PostFromDoc over a pre-computed tokenization of text:
// one tokenizer pass feeds both the topic match and, on the sentiment
// dimension, the polarity score.
func (m *Matcher) PostFromTokens(id int64, time float64, text string, tokens []textutil.Token, dim Dimension) (core.Post, bool) {
	labels := m.MatchTokens(tokens)
	if len(labels) == 0 {
		return core.Post{}, false
	}
	value := time
	if dim == BySentiment {
		value = sentiment.ScoreTokens(text, tokens)
	}
	return core.Post{ID: id, Value: value, Labels: labels}, true
}

// FromLDA converts trained LDA topics into matcher queries: topic k becomes
// a Topic named by namer (or "topic-k") with its top keywordsPerTopic
// weighted keywords — the paper's §7.1 query-generation step.
func FromLDA(model *lda.Model, topicIDs []int, keywordsPerTopic int, namer func(k int) string) ([]Topic, error) {
	if len(topicIDs) == 0 {
		return nil, ErrNoTopics
	}
	topics := make([]Topic, 0, len(topicIDs))
	for _, k := range topicIDs {
		kws := model.TopKeywords(k, keywordsPerTopic)
		if len(kws) == 0 {
			return nil, fmt.Errorf("match: LDA topic %d has no keywords", k)
		}
		name := fmt.Sprintf("topic-%d", k)
		if namer != nil {
			name = namer(k)
		}
		t := Topic{Name: name}
		for _, kw := range kws {
			t.Keywords = append(t.Keywords, Keyword{Text: kw.Word, Weight: kw.Weight})
		}
		topics = append(topics, t)
	}
	return topics, nil
}
