package route

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestTableInternLookup(t *testing.T) {
	tab := NewTable()
	syms := tab.InternAll(nil, []string{"obama", "senate"})
	a, b := syms[0], syms[1]
	if a == b {
		t.Fatalf("distinct words share symbol %d", a)
	}
	if got := tab.InternAll(nil, []string{"obama"}); got[0] != a {
		t.Errorf("re-intern = %d, want %d", got[0], a)
	}
	if got := tab.AppendSyms(nil, []string{"senate"}); len(got) != 1 || got[0] != b {
		t.Errorf("AppendSyms(senate) = %v, want [%d]", got, b)
	}
	if got := tab.AppendSyms(nil, []string{"unknown"}); len(got) != 0 {
		t.Errorf("AppendSyms(unknown) = %v, want none", got)
	}
	// Symbols are dense: a third word takes the next ID.
	if got := tab.InternAll(nil, []string{"vote"}); got[0] != 2 {
		t.Errorf("third symbol = %d, want 2", got[0])
	}
}

func TestTableInternAllBatch(t *testing.T) {
	tab := NewTable()
	syms := tab.InternAll(nil, []string{"a", "b", "a", "c"})
	if len(syms) != 4 {
		t.Fatalf("len = %d, want 4", len(syms))
	}
	if syms[0] != syms[2] {
		t.Errorf("repeated word resolved to %d and %d", syms[0], syms[2])
	}
	// Re-interning an already-known batch must return identical symbols.
	again := tab.InternAll(nil, []string{"c", "b", "a"})
	want := []uint32{syms[3], syms[1], syms[0]}
	for i := range again {
		if again[i] != want[i] {
			t.Errorf("again[%d] = %d, want %d", i, again[i], want[i])
		}
	}
	// Three distinct words got the three dense IDs 0..2.
	if got := DedupSyms(append([]uint32(nil), syms...)); !slices.Equal(got, []uint32{0, 1, 2}) {
		t.Errorf("distinct symbols = %v, want [0 1 2]", got)
	}
}

// TestTableChurnStaysFlat interns and releases 10,000 unique keywords next
// to one long-lived keyword: the table ends the size it started, every
// churned keyword is forgotten, and no ID is ever handed out twice.
func TestTableChurnStaysFlat(t *testing.T) {
	tab := NewTable()
	shared := tab.InternAll(nil, []string{"news"})
	seen := map[uint32]bool{shared[0]: true}
	for i := 0; i < 10000; i++ {
		syms := tab.InternAll(nil, []string{fmt.Sprintf("kw%d", i), "news"})
		if seen[syms[0]] {
			t.Fatalf("churn %d: symbol %d reused", i, syms[0])
		}
		seen[syms[0]] = true
		if syms[1] != shared[0] {
			t.Fatalf("churn %d: shared keyword moved to %d", i, syms[1])
		}
		tab.Release(syms)
	}
	if len(tab.m) != 1 || len(tab.refs) != 1 {
		t.Errorf("after churn: %d words, %d symbols; want 1 and 1", len(tab.m), len(tab.refs))
	}
	if got := tab.AppendSyms(nil, []string{"kw0", "kw9999", "news"}); !slices.Equal(got, shared) {
		t.Errorf("AppendSyms after churn = %v, want only %v", got, shared)
	}
	tab.Release(shared)
	if len(tab.m) != 0 || len(tab.refs) != 0 {
		t.Errorf("after the last release: %d words, %d symbols; want none", len(tab.m), len(tab.refs))
	}
}

// TestStaleSymbolFindsNoPostings: a post that resolved a keyword before its
// last profile left holds a dead symbol. Once the keyword comes back (and
// another arrives) under fresh IDs, the dead one finds no postings.
func TestStaleSymbolFindsNoPostings(t *testing.T) {
	tab := NewTable()
	ix := NewIndex[string]()
	old := tab.InternAll(nil, []string{"obama"})
	ix.Add(1, "first", old)
	stale := tab.AppendSyms(nil, []string{"obama"}) // an in-flight post
	ix.Remove(1, old)
	tab.Release(old)
	other := tab.InternAll(nil, []string{"senate"})
	again := tab.InternAll(nil, []string{"obama"})
	if other[0] == stale[0] || again[0] == stale[0] {
		t.Fatalf("dead symbol %d reassigned (senate %d, obama %d)", stale[0], other[0], again[0])
	}
	ix.Add(2, "senate", other)
	ix.Add(3, "obama again", again)
	if got := ix.Postings(nil, stale); len(got) != 0 {
		t.Errorf("stale symbol routed to %v", got)
	}
}

func TestAppendSymsSkipsUnknown(t *testing.T) {
	tab := NewTable()
	tab.InternAll(nil, []string{"x", "y"})
	syms := tab.AppendSyms(nil, []string{"x", "nope", "y", "x"})
	if len(syms) != 3 {
		t.Fatalf("len = %d, want 3 (unknown skipped, dup kept)", len(syms))
	}
}

func TestDedupSyms(t *testing.T) {
	got := DedupSyms([]uint32{5, 1, 3, 1, 5, 5, 2})
	want := []uint32{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := DedupSyms(nil); len(out) != 0 {
		t.Errorf("DedupSyms(nil) = %v", out)
	}
}

func TestIndexAddRemoveCandidates(t *testing.T) {
	ix := NewIndex[string]()
	ix.Add(1, "one", []uint32{0, 2})
	ix.Add(2, "two", []uint32{1, 2})
	ix.Add(3, "three", []uint32{0})

	ids := func(syms ...uint32) []int64 {
		var out []int64
		for _, e := range ix.Candidates(nil, syms) {
			out = append(out, e.ID)
		}
		return out
	}
	if got := ids(0); !equalIDs(got, []int64{1, 3}) {
		t.Errorf("sym 0 candidates = %v", got)
	}
	if got := ids(2); !equalIDs(got, []int64{1, 2}) {
		t.Errorf("sym 2 candidates = %v", got)
	}
	// Union over symbols dedups and stays ID-ordered.
	if got := ids(0, 1, 2); !equalIDs(got, []int64{1, 2, 3}) {
		t.Errorf("union candidates = %v", got)
	}
	if got := ids(7); got != nil {
		t.Errorf("unposted sym candidates = %v", got)
	}
	ix.Remove(1, []uint32{0, 2})
	if got := ids(0, 1, 2); !equalIDs(got, []int64{2, 3}) {
		t.Errorf("post-remove candidates = %v", got)
	}
	// Removing an absent ID is a no-op.
	ix.Remove(1, []uint32{0, 2})
	if got := ids(0, 1, 2); !equalIDs(got, []int64{2, 3}) {
		t.Errorf("idempotent remove broke candidates: %v", got)
	}
}

// TestIndexCandidatesMatchesNaive cross-checks the k-way merge against a
// brute-force union over random posting memberships, including spills past
// the stack merge budget.
func TestIndexCandidatesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nSyms := 1 + rng.Intn(2*mergeLists) // sometimes exceeds the stack budget
		nSubs := 1 + rng.Intn(40)
		ix := NewIndex[int]()
		members := make(map[int64]map[uint32]bool)
		for id := int64(1); id <= int64(nSubs); id++ {
			var syms []uint32
			for s := 0; s < nSyms; s++ {
				if rng.Intn(3) == 0 {
					syms = append(syms, uint32(s))
				}
			}
			ix.Add(id, int(id), syms)
			set := make(map[uint32]bool)
			for _, s := range syms {
				set[s] = true
			}
			members[id] = set
		}
		var query []uint32
		for s := 0; s < nSyms; s++ {
			if rng.Intn(2) == 0 {
				query = append(query, uint32(s))
			}
		}
		var want []int64
		for id, set := range members {
			for _, s := range query {
				if set[s] {
					want = append(want, id)
					break
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		for _, e := range ix.Candidates(nil, query) {
			got = append(got, e.ID)
			if int64(e.V) != e.ID {
				t.Fatalf("payload %d does not match ID %d", e.V, e.ID)
			}
		}
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: candidates = %v, want %v", trial, got, want)
		}
	}
}

// TestIndexConcurrentReaders hammers Candidates and Postings reads against
// concurrent add/remove churn. Under -race it exercises the RWMutex; the
// posting counts check that a subscriber appears under all of its symbols
// or none, since AddFunc and Remove each land under one write lock.
func TestIndexConcurrentReaders(t *testing.T) {
	ix := NewIndex[int]()
	tab := NewTable()
	var words []string
	for i := 0; i < 16; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	syms := tab.InternAll(nil, words)
	symsOf := func(id int64) []uint32 { return syms[:1+id%int64(len(syms))] }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Entry[int]
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = ix.Candidates(buf[:0], syms)
				last := int64(-1)
				for _, e := range buf {
					if e.ID <= last {
						t.Errorf("candidates out of order: %d after %d", e.ID, last)
						return
					}
					last = e.ID
				}
				buf = ix.Postings(buf[:0], syms)
				for i := 0; i < len(buf); {
					j := i + 1
					for j < len(buf) && buf[j].ID == buf[i].ID {
						j++
					}
					if want := len(symsOf(buf[i].ID)); j-i != want {
						t.Errorf("subscriber %d has %d postings, want %d", buf[i].ID, j-i, want)
						return
					}
					i = j
				}
			}
		}()
	}
	for id := int64(1); id <= 200; id++ {
		ix.Add(id, int(id), symsOf(id))
		if id%3 == 0 {
			ix.Remove(id-2, syms)
		}
	}
	close(stop)
	wg.Wait()
}

// TestIndexPostingsMatchesNaive cross-checks Postings against a brute-force
// listing: for each subscriber in ID order, one entry per query symbol it
// is posted under, in query order, carrying that symbol's payload.
func TestIndexPostingsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type posting struct {
		id  int64
		sym uint32
	}
	for trial := 0; trial < 50; trial++ {
		nSyms := 1 + rng.Intn(2*mergeLists)
		nSubs := 1 + rng.Intn(40)
		ix := NewIndex[posting]()
		members := make(map[int64]map[uint32]bool)
		// Add in random ID order so inserts land mid-list too.
		for _, k := range rng.Perm(nSubs) {
			id := int64(k + 1)
			var syms []uint32
			for s := 0; s < nSyms; s++ {
				if rng.Intn(3) == 0 {
					syms = append(syms, uint32(s))
				}
			}
			ix.AddFunc(id, syms, func(sym uint32) posting { return posting{id, sym} })
			members[id] = make(map[uint32]bool)
			for _, s := range syms {
				members[id][s] = true
			}
		}
		// Withdraw a few subscribers from some of their symbols.
		for id := int64(1); id <= int64(nSubs); id += 5 {
			var drop []uint32
			for s := uint32(0); s < uint32(nSyms); s++ {
				if members[id][s] && rng.Intn(2) == 0 {
					drop = append(drop, s)
					delete(members[id], s)
				}
			}
			ix.Remove(id, drop)
		}
		var query []uint32
		for _, s := range rng.Perm(nSyms) {
			if rng.Intn(2) == 0 {
				query = append(query, uint32(s))
			}
		}
		var want []posting
		for id := int64(1); id <= int64(nSubs); id++ {
			for _, s := range query {
				if members[id][s] {
					want = append(want, posting{id, s})
				}
			}
		}
		var got []posting
		for _, e := range ix.Postings(nil, query) {
			if e.V.id != e.ID {
				t.Fatalf("payload %v does not match ID %d", e.V, e.ID)
			}
			got = append(got, e.V)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: postings = %v, want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: postings = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestCandidatesAllocFreeSteadyState(t *testing.T) {
	ix := NewIndex[int]()
	for id := int64(1); id <= 100; id++ {
		ix.Add(id, int(id), []uint32{uint32(id % 8)})
	}
	syms := []uint32{0, 1, 2, 3}
	buf := ix.Candidates(nil, syms)
	allocs := testing.AllocsPerRun(100, func() {
		buf = ix.Candidates(buf[:0], syms)
	})
	if allocs != 0 {
		t.Errorf("Candidates steady-state allocs = %v, want 0", allocs)
	}
	buf = ix.Postings(buf[:0], syms)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = ix.Postings(buf[:0], syms)
	}); allocs != 0 {
		t.Errorf("Postings steady-state allocs = %v, want 0", allocs)
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
