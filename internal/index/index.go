// Package index implements an in-memory, real-time inverted index over
// microblogging posts — the "tweets inverted index" of the paper's Figure 1
// architecture (there built on Lucene, here built from scratch). Like
// Twitter's EarlyBird it is append-only in timestamp order and organized as
// a chain of sealed, immutable segments plus one active segment receiving
// writes: a single writer appends documents while readers run term,
// boolean-OR/AND, time-range and TF-IDF ranked queries.
//
// Concurrency model (lock-light snapshot reads): the segment list is
// published as a copy-on-write view behind an atomic.Pointer. Sealed
// segments are immutable, so readers pin the current view with one atomic
// load and query them with zero lock acquisitions — even while a writer is
// blocked inside Add holding the write mutex. The single active segment is
// readable through the same view via per-term atomically published posting
// slices and an atomically published document slice header; the only
// writer-side lock is a plain mutex serializing Add/AddBatch/Save. Document
// visibility is publish-ordered: the doc slice header is stored before the
// doc's postings, so a reader can momentarily miss the newest posting but
// never observes a posting whose document it cannot resolve.
package index

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

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

// posting is one (document, term-frequency) entry; pos is the document's
// global position across all segments. Postings are appended in timestamp
// order and never mutated, so every posting list is time-sorted for free
// (the EarlyBird property) and supports binary search over doc times.
type posting struct {
	pos  int32
	freq uint16
}

// DefaultSegmentSize is the document count at which the active segment is
// sealed and a fresh one opened.
const DefaultSegmentSize = 1 << 16

// Index is a real-time inverted index. The zero value is not usable; call
// New. One goroutine may Add while any number run queries.
type Index struct {
	// snap is the published read view; queries pin it with one atomic load.
	snap atomic.Pointer[view]

	// writeMu serializes Add/AddBatch (and Save, which needs a quiesced
	// writer). Queries never acquire it.
	writeMu sync.Mutex

	// Writer-private state, guarded by writeMu.
	segSize     int
	activeDocs  []Doc                    // live doc slice of the active segment
	activeTerms map[string]*livePostings // writer-side view of active postings
	termSet     map[string]struct{}      // distinct terms across all segments
	lastTime    float64
	hasDocs     bool

	// termCount mirrors len(termSet) for lock-free Terms().
	termCount atomic.Int64
}

// New returns an empty index with the default segment size.
func New() *Index { return NewWithSegmentSize(DefaultSegmentSize) }

// NewWithSegmentSize returns an empty index sealing segments at size docs.
func NewWithSegmentSize(size int) *Index {
	if size < 1 {
		size = 1
	}
	ix := &Index{
		segSize:     size,
		activeDocs:  make([]Doc, 0, min(size, 1024)),
		activeTerms: make(map[string]*livePostings),
		termSet:     make(map[string]struct{}),
	}
	ix.snap.Store(&view{active: &activeSeg{}})
	return ix
}

// ErrTimeOrder reports an Add with a timestamp before the newest document.
var ErrTimeOrder = errors.New("index: documents must be added in timestamp order")

// Add indexes doc. Documents must arrive in nondecreasing Time order. When
// the active segment is full it is sealed — frozen into an immutable segment
// with per-term time bounds — and a new view is published.
func (ix *Index) Add(doc Doc) error {
	var buf [32]textutil.Token
	return ix.AddTokens(doc, textutil.AppendTokens(buf[:0], doc.Text))
}

// AddTokens indexes doc using the caller's tokenization of doc.Text — the
// tokenize-once ingest path: callers that also run the tokens through a
// topic matcher tokenize each post exactly once.
// Tokenization and term counting happen outside the write lock.
func (ix *Index) AddTokens(doc Doc, tokens []textutil.Token) error {
	counts := countTerms(tokens)
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	return ix.addLocked(doc, counts)
}

// AddBatch indexes docs in order under a single write-lock round,
// tokenizing every document before the lock is taken. It returns the number
// of documents indexed; on a time-order violation indexing stops there and
// the accepted prefix remains visible.
func (ix *Index) AddBatch(docs []Doc) (int, error) {
	counts := make([]map[string]uint16, len(docs))
	var buf []textutil.Token
	for i, d := range docs {
		buf = textutil.AppendTokens(buf[:0], d.Text)
		counts[i] = countTerms(buf)
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	for i, d := range docs {
		if err := ix.addLocked(d, counts[i]); err != nil {
			return i, err
		}
	}
	return len(docs), nil
}

// countTerms folds tokens into per-term frequencies, skipping stopwords.
func countTerms(tokens []textutil.Token) map[string]uint16 {
	counts := make(map[string]uint16, len(tokens))
	for _, tok := range tokens {
		if tok.Kind == textutil.Word && textutil.IsStopword(tok.Text) {
			continue
		}
		if counts[tok.Text] < math.MaxUint16 {
			counts[tok.Text]++
		}
	}
	return counts
}

// addLocked appends one document and publishes it to readers: the doc slice
// header first, then its postings. Caller holds writeMu.
func (ix *Index) addLocked(doc Doc, counts map[string]uint16) error {
	if ix.hasDocs && doc.Time < ix.lastTime {
		return fmt.Errorf("%w: %v after %v", ErrTimeOrder, doc.Time, ix.lastTime)
	}
	v := ix.snap.Load()
	act := v.active
	if len(ix.activeDocs) >= ix.segSize {
		act = ix.sealLocked(v)
	}
	pos := act.start + int32(len(ix.activeDocs))
	ix.activeDocs = append(ix.activeDocs, doc)
	// Publish the document before its postings: readers resolve every
	// visible posting, at worst missing the newest ones.
	hdr := ix.activeDocs
	act.docs.Store(&hdr)
	ix.lastTime = doc.Time
	ix.hasDocs = true
	for term, freq := range counts {
		lp := ix.activeTerms[term]
		if lp == nil {
			// Token texts may alias the post text (textutil.AppendTokens);
			// clone before retaining the term as a long-lived map key.
			term = strings.Clone(term)
			lp = new(livePostings)
			ix.activeTerms[term] = lp
			act.posts.Store(term, lp)
			if _, seen := ix.termSet[term]; !seen {
				ix.termSet[term] = struct{}{}
				ix.termCount.Add(1)
			}
		}
		var pl []posting
		if p := lp.list.Load(); p != nil {
			pl = *p
		}
		pl = append(pl, posting{pos: pos, freq: freq})
		lp.list.Store(&pl)
	}
	return nil
}

// sealLocked freezes the active segment into an immutable sealed segment
// with per-term time bounds, publishes a new view with a fresh active
// segment, and resets the writer-side buffers. Caller holds writeMu.
func (ix *Index) sealLocked(v *view) *activeSeg {
	docs := ix.activeDocs
	times := make([]float64, len(docs))
	for i, d := range docs {
		times[i] = d.Time
	}
	seg := &sealedSeg{
		start:    v.active.start,
		docs:     docs,
		times:    times,
		postings: make(map[string]termInfo, len(ix.activeTerms)),
	}
	if len(times) > 0 {
		seg.minTime, seg.maxTime = times[0], times[len(times)-1]
	}
	for term, lp := range ix.activeTerms {
		p := lp.list.Load()
		if p == nil || len(*p) == 0 {
			continue
		}
		pl := *p
		seg.postings[term] = termInfo{
			list:    pl,
			minTime: times[pl[0].pos-seg.start],
			maxTime: times[pl[len(pl)-1].pos-seg.start],
		}
	}
	act := &activeSeg{start: seg.start + int32(len(docs))}
	sealed := make([]*sealedSeg, len(v.sealed), len(v.sealed)+1)
	copy(sealed, v.sealed)
	sealed = append(sealed, seg)
	starts := make([]int32, len(sealed)+1)
	for i, s := range sealed {
		starts[i] = s.start
	}
	starts[len(sealed)] = act.start
	ix.snap.Store(&view{sealed: sealed, starts: starts, active: act})
	ix.activeDocs = make([]Doc, 0, min(ix.segSize, 1024))
	ix.activeTerms = make(map[string]*livePostings)
	return act
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	return int(ix.snap.Load().count())
}

// Segments reports how many segments back the index (≥ 1).
func (ix *Index) Segments() int {
	return len(ix.snap.Load().sealed) + 1
}

// Doc returns the document at position pos (0 ≤ pos < Len, in time order).
func (ix *Index) Doc(pos int32) Doc {
	return ix.snap.Load().doc(pos)
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	return ix.snap.Load().docFreq(term)
}

// Terms reports the number of distinct indexed terms.
func (ix *Index) Terms() int {
	return int(ix.termCount.Load())
}
