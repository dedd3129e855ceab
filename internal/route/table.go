// Package route implements the shared subscription-routing layer: a
// server-side symbol table that interns topic keywords and post tokens to
// uint32 symbol IDs, counting the profiles that hold each, and an inverted
// index from keyword symbol to the ID-ordered posting list of subscriptions
// carrying it.
//
// Together they invert the ingest fan-out of the paper's §7.4 scenario
// ("executed for millions of users"): instead of feeding every post to
// every subscription — O(|subs|) matcher invocations per post — ingest
// tokenizes once, maps the tokens to symbols, and k-way-merges the
// candidate posting lists, feeding only the subscriptions that can
// possibly match.
//
// Both structures are plain maps mutated in place under their own leaf
// sync.RWMutex: a registry write (Subscribe, Unsubscribe, quarantine)
// costs what the profile costs, not what the registry holds, and a read
// copies what it needs into caller scratch before releasing the lock, so
// no caller ever holds it across other work.
package route

import "sync"

// Table interns strings to uint32 symbols and counts the references each
// symbol holds. Reads share a read lock; interning and releasing take the
// write lock and touch only the words they name.
//
// A symbol is deleted with its last reference, so churn of unique keywords
// leaves the table the size of the live profiles. IDs come from a counter
// and are never reused: a post that resolved a word before its symbol died
// finds no postings under the dead ID, never another keyword's.
type Table struct {
	mu   sync.RWMutex
	m    map[string]uint32 // word → live symbol
	refs map[uint32]ref    // live symbol → its word and reference count
	next uint32            // the next unused ID
}

type ref struct {
	word string
	n    int
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{m: make(map[string]uint32), refs: make(map[uint32]ref)}
}

// AppendSyms appends the symbols of every word present in the table to dst
// and returns the extended slice, reusing dst's capacity. Unknown words
// are skipped — they can match no keyword anywhere. Duplicates in words
// yield duplicate symbols (see DedupSyms).
func (t *Table) AppendSyms(dst []uint32, words []string) []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, w := range words {
		if sym, ok := t.m[w]; ok {
			dst = append(dst, sym)
		}
	}
	return dst
}

// InternAll appends the symbol of every word to dst, taking one reference
// per word and assigning the next unused ID to each new word in word order,
// and returns the extended slice. Release gives the references back.
func (t *Table) InternAll(dst []uint32, words []string) []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range words {
		sym, ok := t.m[w]
		if !ok {
			sym = t.next
			t.next++
			t.m[w] = sym
		}
		r := t.refs[sym]
		t.refs[sym] = ref{word: w, n: r.n + 1}
		dst = append(dst, sym)
	}
	return dst
}

// Release drops one reference from every symbol in syms, deleting each
// symbol whose last reference it drops. Symbols not in the table are
// skipped.
func (t *Table) Release(syms []uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sym := range syms {
		r, ok := t.refs[sym]
		switch {
		case !ok:
		case r.n == 1:
			delete(t.refs, sym)
			delete(t.m, r.word)
		default:
			t.refs[sym] = ref{word: r.word, n: r.n - 1}
		}
	}
}

// DedupSyms sorts syms ascending and removes duplicates in place. Symbol
// slices are post-sized (tens of entries), so an allocation-free insertion
// sort beats sort.Slice and keeps the ingest hot path zero-alloc.
func DedupSyms(syms []uint32) []uint32 {
	for i := 1; i < len(syms); i++ {
		for j := i; j > 0 && syms[j] < syms[j-1]; j-- {
			syms[j], syms[j-1] = syms[j-1], syms[j]
		}
	}
	out := syms[:0]
	for i, s := range syms {
		if i == 0 || syms[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
