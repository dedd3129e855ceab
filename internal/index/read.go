package index

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mqdp/internal/textutil"
)

// idfWeight and tfWeight are the TF-IDF components shared by Search and its
// naive reference.
func idfWeight(n, df float64) float64 { return math.Log(1 + n/df) }
func tfWeight(freq uint16) float64    { return 1 + math.Log(float64(freq)) }

// view is the copy-on-write read snapshot published behind Index.snap.
// Everything reachable from sealed is immutable; the active segment is
// readable through atomically published slice headers. A reader pins one
// view with a single atomic load and never blocks on the writer.
type view struct {
	sealed []*sealedSeg
	// starts holds each sealed segment's start position plus the active
	// segment's start as the final entry, for O(log segs) doc resolution.
	starts []int32
	active *activeSeg
}

// sealedSeg is an immutable segment: documents, their timestamps (monotone,
// densely indexed for binary search), and postings with per-term time
// bounds for range skipping.
type sealedSeg struct {
	start            int32
	docs             []Doc
	times            []float64 // times[i] = docs[i].Time, nondecreasing
	minTime, maxTime float64
	postings         map[string]termInfo
}

// termInfo is one sealed posting list plus the time bounds of its first and
// last posting: a range query skips the whole list when its window misses
// [minTime, maxTime], and skips both binary searches when the window covers
// it.
type termInfo struct {
	list             []posting
	minTime, maxTime float64
}

// activeSeg is the single segment receiving writes, readable without locks:
// docs is the atomically published document slice header (its length is the
// visible doc count) and posts maps term → *livePostings. The doc header is
// published before the doc's postings, so a reader never sees a posting it
// cannot resolve; it clamps posting lists to the doc count it loaded.
type activeSeg struct {
	start int32
	docs  atomic.Pointer[[]Doc]
	posts sync.Map // string → *livePostings
}

// livePostings is one active-segment posting list; the writer appends and
// re-publishes the slice header, readers load it atomically.
type livePostings struct {
	list atomic.Pointer[[]posting]
}

// visibleDocs loads the active segment's published documents.
func (a *activeSeg) visibleDocs() []Doc {
	if d := a.docs.Load(); d != nil {
		return *d
	}
	return nil
}

// clampedPostings returns term's active posting list restricted to
// positions below limit (the doc count the reader has observed).
func (a *activeSeg) clampedPostings(term string, limit int32) []posting {
	x, ok := a.posts.Load(term)
	if !ok {
		return nil
	}
	p := x.(*livePostings).list.Load()
	if p == nil {
		return nil
	}
	pl := *p
	if n := len(pl); n > 0 && pl[n-1].pos >= limit {
		pl = pl[:sort.Search(n, func(k int) bool { return pl[k].pos >= limit })]
	}
	return pl
}

// count reports the visible document total.
func (v *view) count() int32 {
	return v.active.start + int32(len(v.active.visibleDocs()))
}

// doc resolves a global position against this view.
func (v *view) doc(pos int32) Doc {
	if pos >= v.active.start {
		return v.active.visibleDocs()[pos-v.active.start]
	}
	k := sort.Search(len(v.starts), func(i int) bool { return v.starts[i] > pos }) - 1
	s := v.sealed[k]
	return s.docs[pos-s.start]
}

// docFreq counts documents containing term across all segments.
func (v *view) docFreq(term string) int {
	total := 0
	for _, seg := range v.sealed {
		total += len(seg.postings[term].list)
	}
	act := v.active
	limit := act.start + int32(len(act.visibleDocs()))
	return total + len(act.clampedPostings(term, limit))
}

// rangePostings returns the slice of s's postings for term whose doc times
// fall in [lo, hi], using the per-term bounds to skip and binary search over
// the monotone doc times to trim: O(log n) instead of a linear scan.
func (s *sealedSeg) rangePostings(term string, lo, hi float64) []posting {
	ti, ok := s.postings[term]
	if !ok {
		return nil
	}
	if ti.minTime > hi || ti.maxTime < lo {
		return nil
	}
	pl := ti.list
	from, to := 0, len(pl)
	if lo > ti.minTime {
		from = sort.Search(len(pl), func(k int) bool { return s.times[pl[k].pos-s.start] >= lo })
	}
	if hi < ti.maxTime {
		to = sort.Search(len(pl), func(k int) bool { return s.times[pl[k].pos-s.start] > hi })
	}
	if from >= to { // inverted window (lo > hi) that still overlaps the bounds
		return nil
	}
	return pl[from:to]
}

// rangeActive trims the active segment's clamped posting list to [lo, hi]
// by binary search over the published (monotone) doc times.
func rangeActive(docs []Doc, start int32, pl []posting, lo, hi float64) []posting {
	if len(pl) == 0 {
		return nil
	}
	first := docs[pl[0].pos-start].Time
	last := docs[pl[len(pl)-1].pos-start].Time
	if first > hi || last < lo {
		return nil
	}
	from, to := 0, len(pl)
	if lo > first {
		from = sort.Search(len(pl), func(k int) bool { return docs[pl[k].pos-start].Time >= lo })
	}
	if hi < last {
		to = sort.Search(len(pl), func(k int) bool { return docs[pl[k].pos-start].Time > hi })
	}
	if from >= to {
		return nil
	}
	return pl[from:to]
}

// termPositions gathers term's positions within [lo, hi] across segments,
// ascending.
func (v *view) termPositions(term string, lo, hi float64, out []int32) []int32 {
	for _, seg := range v.sealed {
		if seg.minTime > hi || seg.maxTime < lo {
			continue
		}
		for _, p := range seg.rangePostings(term, lo, hi) {
			out = append(out, p.pos)
		}
	}
	act := v.active
	docs := act.visibleDocs()
	limit := act.start + int32(len(docs))
	for _, p := range rangeActive(docs, act.start, act.clampedPostings(term, limit), lo, hi) {
		out = append(out, p.pos)
	}
	return out
}

// TermQuery returns the positions of documents containing term with Time in
// [lo, hi], ascending. It pins the current snapshot and acquires no locks.
func (ix *Index) TermQuery(term string, lo, hi float64) []int32 {
	return ix.snap.Load().termPositions(term, lo, hi, nil)
}

// AnyQuery returns positions of documents containing at least one of terms,
// with Time in [lo, hi], ascending and deduplicated (boolean OR).
func (ix *Index) AnyQuery(terms []string, lo, hi float64) []int32 {
	v := ix.snap.Load()
	var all []int32
	for _, t := range terms {
		all = v.termPositions(t, lo, hi, all)
	}
	return sortDedup(all)
}

// sortDedup sorts positions ascending and removes duplicates in place.
func sortDedup(all []int32) []int32 {
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:1]
	for _, p := range all[1:] {
		if out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

// AllQuery returns positions of documents containing every one of terms,
// with Time in [lo, hi], ascending (boolean AND). An empty term list matches
// nothing. Lists intersect rarest-first with galloping (exponential) search,
// so a rare ∧ common conjunction costs O(|rare| · log |common|).
func (ix *Index) AllQuery(terms []string, lo, hi float64) []int32 {
	v := ix.snap.Load()
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]int32, 0, len(terms))
	for _, t := range terms {
		pl := v.termPositions(t, lo, hi, nil)
		if len(pl) == 0 {
			return nil
		}
		lists = append(lists, pl)
	}
	// Rarest-first: start from the shortest in-window list.
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cur := lists[0]
	for _, other := range lists[1:] {
		cur = intersectGallop(cur, other)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// intersectGallop intersects two ascending position lists, galloping through
// b (the larger list): for each element of a the cursor in b advances by
// doubling steps, then binary-searches inside the last step window.
func intersectGallop(a, b []int32) []int32 {
	out := a[:0]
	j := 0
	for _, x := range a {
		if j >= len(b) {
			break
		}
		if b[j] < x {
			// Gallop: find an upper bound for x from offset j.
			step := 1
			for j+step < len(b) && b[j+step] < x {
				step <<= 1
			}
			hiB := min(j+step+1, len(b))
			j += sort.Search(hiB-j, func(k int) bool { return b[j+k] >= x })
		}
		if j < len(b) && b[j] == x {
			out = append(out, x)
			j++
		}
	}
	return out
}

// Hit is one ranked search result.
type Hit struct {
	Pos   int32
	Score float64
}

// worseHit reports whether a ranks strictly below b in the search order:
// lower score, or equal score and later position. This single total order
// drives both top-k eviction and the final sort, so equal-score results are
// deterministic regardless of accumulation order.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Pos > b.Pos
}

// topK is a size-bounded selection: a slice-backed min-heap on worseHit
// whose root is the current worst retained hit. Offers below the root are
// rejected with one comparison and no heap movement, avoiding the
// interface boxing and full-heap churn of container/heap.
type topK struct {
	hits []Hit
	k    int
}

func (t *topK) offer(h Hit) {
	if len(t.hits) < t.k {
		t.hits = append(t.hits, h)
		// Sift up.
		i := len(t.hits) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worseHit(t.hits[i], t.hits[parent]) {
				break
			}
			t.hits[i], t.hits[parent] = t.hits[parent], t.hits[i]
			i = parent
		}
		return
	}
	if !worseHit(t.hits[0], h) {
		return // h does not beat the current worst
	}
	t.hits[0] = h
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(t.hits) && worseHit(t.hits[l], t.hits[smallest]) {
			smallest = l
		}
		if r < len(t.hits) && worseHit(t.hits[r], t.hits[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.hits[i], t.hits[smallest] = t.hits[smallest], t.hits[i]
		i = smallest
	}
}

// sorted returns the retained hits best-first.
func (t *topK) sorted() []Hit {
	sort.Slice(t.hits, func(i, j int) bool { return worseHit(t.hits[j], t.hits[i]) })
	return t.hits
}

// searchTerms extracts the distinct non-stopword query terms, sorted.
// A sorted slice (not a map) fixes the score-accumulation order, so the
// floating-point rounding of a document's score is deterministic and
// identical between Search and SearchScan.
func searchTerms(query string) []string {
	seen := make(map[string]struct{})
	var terms []string
	var buf [32]textutil.Token
	for _, tok := range textutil.AppendTokens(buf[:0], query) {
		if tok.Kind == textutil.Word && textutil.IsStopword(tok.Text) {
			continue
		}
		if _, dup := seen[tok.Text]; dup {
			continue
		}
		seen[tok.Text] = struct{}{}
		terms = append(terms, tok.Text)
	}
	sort.Strings(terms)
	return terms
}

// Search tokenizes query and returns the top-k documents in [lo, hi] by
// TF-IDF score, best first. Equal scores break toward earlier documents.
func (ix *Index) Search(query string, k int, lo, hi float64) []Hit {
	if k <= 0 {
		return nil
	}
	v := ix.snap.Load()
	scores := v.score(searchTerms(query), lo, hi)
	sel := topK{hits: make([]Hit, 0, min(k, len(scores))), k: k}
	for pos, score := range scores {
		sel.offer(Hit{Pos: pos, Score: score})
	}
	return sel.sorted()
}

// score accumulates TF-IDF scores for every document in [lo, hi] matching
// at least one term, using the skip bounds to trim each posting list.
func (v *view) score(terms []string, lo, hi float64) map[int32]float64 {
	n := float64(v.count())
	scores := make(map[int32]float64)
	act := v.active
	actDocs := act.visibleDocs()
	actLimit := act.start + int32(len(actDocs))
	for _, term := range terms {
		df := v.docFreq(term)
		if df == 0 {
			continue
		}
		idf := idfWeight(n, float64(df))
		for _, seg := range v.sealed {
			if seg.minTime > hi || seg.maxTime < lo {
				continue
			}
			for _, p := range seg.rangePostings(term, lo, hi) {
				scores[p.pos] += tfWeight(p.freq) * idf
			}
		}
		for _, p := range rangeActive(actDocs, act.start, act.clampedPostings(term, actLimit), lo, hi) {
			scores[p.pos] += tfWeight(p.freq) * idf
		}
	}
	return scores
}
