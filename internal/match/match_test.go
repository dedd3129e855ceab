package match

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/lda"
)

func testTopics() []Topic {
	return []Topic{
		{Name: "obama", Keywords: []Keyword{{Text: "obama", Weight: 1}, {Text: "president", Weight: 0.5}}},
		{Name: "economy", Keywords: []Keyword{{Text: "economy", Weight: 1}, {Text: "market", Weight: 0.5}, {Text: "jobs", Weight: 0.3}}},
		{Name: "sports", Keywords: []Keyword{{Text: "game", Weight: 1}, {Text: "team", Weight: 0.6}}},
	}
}

func TestNewMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(nil); !errors.Is(err, ErrNoTopics) {
		t.Errorf("empty topics error = %v", err)
	}
	if _, err := NewMatcher([]Topic{{Name: "empty"}}); err == nil {
		t.Error("topic without keywords accepted")
	}
}

func TestMatchSingleAndMultiTopic(t *testing.T) {
	m, err := NewMatcher(testTopics())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Match("the president spoke about the economy today"); !reflect.DeepEqual(got, []core.Label{0, 1}) {
		t.Errorf("Match = %v, want [0 1]", got)
	}
	if got := m.Match("big game for the home team"); !reflect.DeepEqual(got, []core.Label{2}) {
		t.Errorf("Match = %v, want [2]", got)
	}
	if got := m.Match("nothing relevant here"); got != nil {
		t.Errorf("Match = %v, want nil", got)
	}
	// Repeated keywords must not duplicate labels.
	if got := m.Match("obama obama obama"); !reflect.DeepEqual(got, []core.Label{0}) {
		t.Errorf("Match = %v, want [0]", got)
	}
}

func TestMatcherAccessors(t *testing.T) {
	m, err := NewMatcher(testTopics())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTopics() != 3 {
		t.Errorf("NumTopics = %d", m.NumTopics())
	}
	if m.Topic(1).Name != "economy" {
		t.Errorf("Topic(1) = %q", m.Topic(1).Name)
	}
}

func TestPostFromDocDimensions(t *testing.T) {
	m, err := NewMatcher(testTopics())
	if err != nil {
		t.Fatal(err)
	}
	const text = "great win for the team and a strong economy"
	p, ok := m.PostFromDoc(9, 123, text, ByTime)
	if !ok {
		t.Fatal("matching doc rejected")
	}
	if p.ID != 9 || p.Value != 123 {
		t.Errorf("ByTime post = %+v", p)
	}
	if !reflect.DeepEqual(p.Labels, []core.Label{1, 2}) {
		t.Errorf("labels = %v, want [1 2]", p.Labels)
	}
	ps, ok := m.PostFromDoc(9, 123, text, BySentiment)
	if !ok {
		t.Fatal("matching doc rejected for sentiment")
	}
	if ps.Value <= 0 {
		t.Errorf("sentiment value = %v, want positive for %q", ps.Value, text)
	}
	if _, ok := m.PostFromDoc(1, 0, "irrelevant", ByTime); ok {
		t.Error("non-matching doc accepted")
	}
}

func TestMatchScores(t *testing.T) {
	m, err := NewMatcher(testTopics())
	if err != nil {
		t.Fatal(err)
	}
	// "economy" (1.0) + "market" (0.5) for topic 1; "obama" (1.0) for 0.
	scores := m.MatchScores([]string{"obama", "economy", "market", "economy"})
	if len(scores) != 2 {
		t.Fatalf("scores = %+v", scores)
	}
	if scores[0].Label != 0 || scores[0].Value != 1.0 {
		t.Errorf("obama score = %+v", scores[0])
	}
	if scores[1].Label != 1 || scores[1].Value != 1.5 {
		t.Errorf("economy score = %+v (repeated keyword must count once)", scores[1])
	}
	if got := m.MatchScores([]string{"nothing"}); len(got) != 0 {
		t.Errorf("no-match scores = %+v", got)
	}
}

func TestMatchThreshold(t *testing.T) {
	m, err := NewMatcher(testTopics())
	if err != nil {
		t.Fatal(err)
	}
	text := "the economy and the market moved while obama watched"
	// economy scores 1.5, obama 1.0.
	if got := m.MatchThreshold(text, 1.2); len(got) != 1 || got[0] != 1 {
		t.Errorf("theta=1.2 labels = %v, want [1]", got)
	}
	if got := m.MatchThreshold(text, 0.5); len(got) != 2 {
		t.Errorf("theta=0.5 labels = %v, want both", got)
	}
	if got := m.MatchThreshold(text, 99); got != nil {
		t.Errorf("theta=99 labels = %v, want none", got)
	}
}

func TestFromLDA(t *testing.T) {
	corpus := lda.NewCorpus()
	for i := 0; i < 30; i++ {
		corpus.AddWords([]string{"senate", "vote", "bill"})
		corpus.AddWords([]string{"game", "team", "score"})
	}
	model, err := lda.Train(corpus, lda.Options{Topics: 2, Iterations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	topics, err := FromLDA(model, []int{0, 1}, 3, func(k int) string { return fmt.Sprintf("q%d", k) })
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 2 || topics[0].Name != "q0" || len(topics[0].Keywords) != 3 {
		t.Fatalf("topics = %+v", topics)
	}
	if _, err := NewMatcher(topics); err != nil {
		t.Fatalf("LDA topics rejected by matcher: %v", err)
	}
	if _, err := FromLDA(model, nil, 3, nil); err == nil {
		t.Error("empty topic list accepted")
	}
	if _, err := FromLDA(model, []int{0}, 0, nil); err == nil {
		t.Error("zero keywords accepted")
	}
}
