package route

import (
	"cmp"
	"slices"
	"sync"
)

// Entry is one posting: a subscriber identified by a dense, monotone ID
// carrying an opaque payload (the server stores its *subscription here so
// candidate generation needs no registry lookup).
type Entry[V any] struct {
	ID int64
	V  V
}

// Index is the inverted routing index: keyword symbol → posting list of
// subscribers sorted by ID. Writers (Subscribe, Unsubscribe, quarantine)
// insert and delete postings in place under the write lock; Candidates
// and Postings copy the merged lists into caller scratch under the read
// lock.
type Index[V any] struct {
	mu sync.RWMutex
	m  map[uint32][]Entry[V]
}

// NewIndex returns an empty routing index.
func NewIndex[V any]() *Index[V] {
	return &Index[V]{m: make(map[uint32][]Entry[V])}
}

// Add posts subscriber (id, v) under every symbol in syms (which must be
// deduplicated; see DedupSyms).
func (ix *Index[V]) Add(id int64, v V, syms []uint32) {
	ix.AddFunc(id, syms, func(uint32) V { return v })
}

// AddFunc posts subscriber id under every symbol in syms (deduplicated),
// the posting under sym carrying v(sym). All of them land under one write
// lock, so no reader sees a subscriber under some of its symbols only.
// Lists stay sorted by ID — IDs are assigned monotonically, so the common
// case is an append.
func (ix *Index[V]) AddFunc(id int64, syms []uint32, v func(sym uint32) V) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, sym := range syms {
		l := ix.m[sym]
		at, _ := slices.BinarySearchFunc(l, id, byID[V])
		ix.m[sym] = slices.Insert(l, at, Entry[V]{ID: id, V: v(sym)})
	}
}

// Remove deletes subscriber id from every symbol in syms. Removing an
// absent ID is a no-op per list, so quarantine followed by Unsubscribe is
// safe.
func (ix *Index[V]) Remove(id int64, syms []uint32) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, sym := range syms {
		l := ix.m[sym]
		at, ok := slices.BinarySearchFunc(l, id, byID[V])
		switch {
		case !ok:
		case len(l) == 1:
			delete(ix.m, sym)
		default:
			ix.m[sym] = slices.Delete(l, at, at+1)
		}
	}
}

func byID[V any](e Entry[V], id int64) int { return cmp.Compare(e.ID, id) }

// mergeLists is the stack budget for the per-post k-way merge; posts with
// more distinct live symbols spill to a heap allocation.
const mergeLists = 64

// Candidates appends, in ascending ID order and without duplicates, every
// subscriber posted under at least one symbol of syms (deduplicated), and
// returns the extended slice. The caller reuses dst across posts for an
// allocation-free hot path.
func (ix *Index[V]) Candidates(dst []Entry[V], syms []uint32) []Entry[V] {
	return ix.merge(dst, syms, false)
}

// Postings is Candidates keeping every posting: a subscriber posted under
// several symbols of syms yields one entry per symbol, adjacent to each
// other and in syms order, each with that symbol's payload.
func (ix *Index[V]) Postings(dst []Entry[V], syms []uint32) []Entry[V] {
	return ix.merge(dst, syms, true)
}

// merge is the linear-scan k-way merge over the (sorted) posting lists of
// syms: O(lists × subscribers) comparisons, with lists bounded by the
// post's distinct matched symbols. Each round yields the lowest head ID —
// from every list holding it when all is set, else from the first — and
// drops exhausted lists.
func (ix *Index[V]) merge(dst []Entry[V], syms []uint32, all bool) []Entry[V] {
	var listsArr [mergeLists][]Entry[V]
	lists := listsArr[:0]
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, sym := range syms {
		if l := ix.m[sym]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	if len(lists) == 1 {
		return append(dst, lists[0]...)
	}
	for len(lists) > 0 {
		id := lists[0][0].ID
		for _, l := range lists[1:] {
			id = min(id, l[0].ID)
		}
		live, yielded := lists[:0], false
		for _, l := range lists {
			if l[0].ID == id {
				if all || !yielded {
					dst, yielded = append(dst, l[0]), true
				}
				l = l[1:]
			}
			if len(l) > 0 {
				live = append(live, l)
			}
		}
		lists = live
	}
	return dst
}
