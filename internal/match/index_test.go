package match_test

import (
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/index"
	"mqdp/internal/match"
)

// The matcher's retrieval path runs through index.Index.Match, which
// imports this package; these tests sit in an external test package so
// the matcher itself never imports the index.

func newTestMatcher(t *testing.T) *match.Matcher {
	t.Helper()
	m, err := match.NewMatcher([]match.Topic{
		{Name: "obama", Keywords: []match.Keyword{{Text: "obama", Weight: 1}, {Text: "president", Weight: 0.5}}},
		{Name: "economy", Keywords: []match.Keyword{{Text: "economy", Weight: 1}, {Text: "market", Weight: 0.5}, {Text: "jobs", Weight: 0.3}}},
		{Name: "sports", Keywords: []match.Keyword{{Text: "game", Weight: 1}, {Text: "team", Weight: 0.6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromIndex(t *testing.T) {
	m := newTestMatcher(t)
	ix := index.New()
	docs := []index.Doc{
		{ID: 1, Time: 10, Text: "obama speech tonight"},
		{ID: 2, Time: 20, Text: "cooking recipes and tips"},
		{ID: 3, Time: 30, Text: "market rally lifts economy"},
		{ID: 4, Time: 40, Text: "team wins the game"},
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	posts := ix.Match(m, match.ByTime, 0, 100)
	if len(posts) != 3 {
		t.Fatalf("Match = %d posts, want 3", len(posts))
	}
	wantIDs := []int64{1, 3, 4}
	for i, p := range posts {
		if p.ID != wantIDs[i] {
			t.Errorf("post %d ID = %d, want %d", i, p.ID, wantIDs[i])
		}
	}
	// Time-windowed retrieval.
	posts = ix.Match(m, match.ByTime, 25, 35)
	if len(posts) != 1 || posts[0].ID != 3 {
		t.Errorf("windowed Match = %+v, want just doc 3", posts)
	}
}

func TestMatchedPostsFormValidInstance(t *testing.T) {
	m := newTestMatcher(t)
	ix := index.New()
	texts := []string{
		"obama press conference", "jobs numbers beat forecast", "game night",
		"president meets economy advisors", "team trade rumors",
	}
	for i, txt := range texts {
		if err := ix.Add(index.Doc{ID: int64(i), Time: float64(i * 10), Text: txt}); err != nil {
			t.Fatal(err)
		}
	}
	posts := ix.Match(m, match.ByTime, 0, 1000)
	in, err := core.NewInstance(posts, m.NumTopics())
	if err != nil {
		t.Fatalf("matched posts rejected by core: %v", err)
	}
	cover := in.Scan(core.FixedLambda(15))
	if err := in.VerifyCover(core.FixedLambda(15), cover.Selected); err != nil {
		t.Errorf("pipeline cover invalid: %v", err)
	}
}
