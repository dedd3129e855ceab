// Package index is the in-memory inverted index of the paper's Figure 1
// architecture (there Apache Lucene, here built from scratch). It does the
// one job the paper needs of it: return the posts that contain any of a
// query's keywords within a time range, in time order.
//
// Documents are appended in timestamp order and stored in that order, so a
// document's position is also its rank in time. Each term maps to the
// ascending positions of the documents containing it; a range query finds
// the window's edges in each list by binary search over doc times and
// never scans a whole list. One RWMutex lets one goroutine Add while any
// number run queries.
package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mqdp/internal/core"
	"mqdp/internal/match"
	"mqdp/internal/textutil"
)

// Doc is one indexed post.
type Doc struct {
	// ID is the application identifier.
	ID int64
	// Time is the publication timestamp (seconds, event time).
	Time float64
	// Text is the raw post text.
	Text string
}

// Index is a real-time inverted index. The zero value is not usable; call
// New. One goroutine may Add while any number run queries.
type Index struct {
	mu       sync.RWMutex
	docs     []Doc              // in time order; a doc's position is its index
	postings map[string][]int32 // term → ascending positions of docs containing it
	lastTime float64            // newest doc's Time, -Inf while empty
}

// New returns an empty index.
func New() *Index {
	return &Index{postings: make(map[string][]int32), lastTime: math.Inf(-1)}
}

// ErrTimeOrder reports an Add with a timestamp before the newest document,
// or a NaN timestamp, which orders with nothing.
var ErrTimeOrder = errors.New("index: documents must be added in timestamp order")

// Add indexes doc under each distinct non-stopword token of its text.
// Documents must arrive in nondecreasing Time order.
func (ix *Index) Add(doc Doc) error {
	var buf [32]textutil.Token
	tokens := textutil.AppendTokens(buf[:0], doc.Text)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Negated so that a NaN on either side fails the check.
	if !(doc.Time >= ix.lastTime) {
		return fmt.Errorf("%w: %v after %v", ErrTimeOrder, doc.Time, ix.lastTime)
	}
	pos := int32(len(ix.docs))
	ix.docs = append(ix.docs, doc)
	ix.lastTime = doc.Time
	for _, tok := range tokens {
		if tok.Kind == textutil.Word && textutil.IsStopword(tok.Text) {
			continue
		}
		// Token texts are substrings of doc.Text, which ix.docs retains,
		// so they serve as map keys without a copy.
		pl := ix.postings[tok.Text]
		if n := len(pl); n > 0 && pl[n-1] == pos {
			continue // repeated token
		}
		ix.postings[tok.Text] = append(pl, pos)
	}
	return nil
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Terms reports the number of distinct indexed terms.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Doc returns the document at position pos (0 ≤ pos < Len, in time order).
func (ix *Index) Doc(pos int32) Doc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs[pos]
}

// AnyQuery returns positions of documents containing at least one of terms,
// with Time in [lo, hi], ascending and deduplicated (boolean OR). An
// inverted or NaN window matches nothing.
func (ix *Index) AnyQuery(terms []string, lo, hi float64) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var all []int32
	for _, t := range terms {
		pl := ix.postings[t]
		from := sort.Search(len(pl), func(k int) bool { return ix.docs[pl[k]].Time >= lo })
		to := sort.Search(len(pl), func(k int) bool { return !(ix.docs[pl[k]].Time <= hi) })
		if from < to {
			all = append(all, pl[from:to]...)
		}
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// Match retrieves every document in [lo, hi] that matches at least one of
// m's topics (one boolean-OR query over m's keywords, the paper's "search
// query against an inverted index" input path) and projects the matches
// onto dim. Each retrieved document is tokenized exactly once, into a
// reused buffer.
func (ix *Index) Match(m *match.Matcher, dim match.Dimension, lo, hi float64) []core.Post {
	positions := ix.AnyQuery(m.Keywords(), lo, hi)
	posts := make([]core.Post, 0, len(positions))
	var buf []textutil.Token
	for _, pos := range positions {
		doc := ix.Doc(pos)
		buf = textutil.AppendTokens(buf[:0], doc.Text)
		if p, ok := m.PostFromTokens(doc.ID, doc.Time, doc.Text, buf, dim); ok {
			posts = append(posts, p)
		}
	}
	return posts
}
