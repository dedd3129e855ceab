package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func item(cov int, value float64, seq int64) TopKItem[int64] {
	return TopKItem[int64]{Value: value, Coverage: cov, Seq: seq, Payload: seq}
}

// reference recomputes the view from scratch: sort all live candidates by
// rank and take the first k.
func reference(items []TopKItem[int64], k int, now, window float64) []TopKItem[int64] {
	var live []TopKItem[int64]
	for _, it := range items {
		if window <= 0 || it.Value >= now-window {
			live = append(live, it)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].before(&live[j]) })
	if len(live) > k {
		live = live[:k]
	}
	return live
}

func TestTopKRankOrder(t *testing.T) {
	v := NewTopK[int64](3, 0)
	v.Insert(item(1, 10, 1))
	v.Insert(item(2, 5, 2))  // higher coverage outranks fresher value
	v.Insert(item(2, 7, 3))  // same coverage, fresher → ahead of seq 2
	v.Insert(item(1, 10, 4)) // ties with seq 1 on coverage+value → seq wins
	got := v.Items()
	want := []int64{3, 2, 1}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, w := range want {
		if got[i].Payload != w {
			t.Errorf("rank %d = seq %d, want %d", i, got[i].Payload, w)
		}
	}
	// Without a window a candidate ranked below k can never return.
	if v.Len() != 3 {
		t.Errorf("Len = %d, want k = 3 retained candidates", v.Len())
	}
}

func TestTopKVersionBumpsOnlyOnVisibleChange(t *testing.T) {
	v := NewTopK[int64](2, 0)
	if v.Version() != 0 {
		t.Fatalf("fresh version = %d", v.Version())
	}
	if !v.Insert(item(5, 1, 1)) || !v.Insert(item(4, 2, 2)) {
		t.Fatal("first two inserts must change the view")
	}
	ver := v.Version()
	// Ranks below both → invisible, version unchanged.
	if v.Insert(item(1, 0, 3)) {
		t.Error("below-the-fold insert reported a visible change")
	}
	if v.Version() != ver {
		t.Errorf("version moved %d → %d on invisible insert", ver, v.Version())
	}
	// Outranks the current second → visible.
	if !v.Insert(item(6, 3, 4)) {
		t.Error("top insert did not report a change")
	}
	if v.Version() == ver {
		t.Error("version did not bump on visible insert")
	}
}

func TestTopKWindowExpiry(t *testing.T) {
	v := NewTopK[int64](2, 10)
	v.Insert(item(3, 0, 1))
	v.Insert(item(2, 5, 2))
	v.Insert(item(1, 6, 3))
	if changed := v.Advance(9); changed {
		t.Error("Advance inside the window reported a change")
	}
	// now=11 expires value 0 (the rank-1 item) → seq 3 promotes into view.
	if changed := v.Advance(11); !changed {
		t.Error("expiring a visible item did not report a change")
	}
	got := v.Items()
	if len(got) != 2 || got[0].Payload != 2 || got[1].Payload != 3 {
		t.Fatalf("view after expiry = %+v, want seqs [2 3]", got)
	}
	// An item already behind the window never enters.
	if v.Insert(item(9, 0.5, 4)) {
		t.Error("stale insert entered the view")
	}
}

func TestTopKCandidateCap(t *testing.T) {
	old := maxTopKCandidates
	maxTopKCandidates = 4
	defer func() { maxTopKCandidates = old }()
	// Coverage rises while value falls: each newer item ranks first but
	// expires sooner, so no candidate dominates another and only the cap
	// bounds the set.
	v := NewTopK[int64](2, 100)
	for i := int64(1); i <= 6; i++ {
		v.Insert(item(int(i), float64(10-i), i))
	}
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want cap 4", v.Len())
	}
	// Worst-ranked insert at capacity is rejected.
	if v.Insert(item(0, 0, 7)) {
		t.Error("at-capacity bottom insert reported a change")
	}
	if v.Len() != 4 {
		t.Errorf("cap breached: Len = %d", v.Len())
	}
	got := v.Items()
	if got[0].Payload != 6 || got[1].Payload != 5 {
		t.Errorf("view = %+v, want seqs [6 5]", got)
	}
}

// topkModel is the from-scratch oracle for a TopK: it keeps every admitted
// item until an Advance sweeps it and ranks the whole set on every read.
type topkModel struct {
	k           int
	window, now float64
	items       []TopKItem[int64]
}

func (m *topkModel) insert(it TopKItem[int64]) {
	if it.Value > m.now {
		m.now = it.Value
	}
	if m.window <= 0 || it.Value >= m.now-m.window {
		m.items = append(m.items, it)
	}
}

func (m *topkModel) advance(now float64) {
	if now > m.now {
		m.now = now
	}
	if m.window > 0 {
		m.items = reference(m.items, len(m.items), m.now, m.window)
	}
}

// visible selects the top k by insertion into a k-long ranked prefix.
func (m *topkModel) visible() []TopKItem[int64] {
	top := make([]TopKItem[int64], 0, m.k+1)
	for _, it := range m.items {
		j := len(top)
		for j > 0 && it.before(&top[j-1]) {
			j--
		}
		if j < m.k {
			if top = slices.Insert(top, j, it); len(top) > m.k {
				top = top[:m.k]
			}
		}
	}
	return top
}

// state is the snapshot a view that retained every admitted candidate
// would have taken.
func (m *topkModel) state(version uint64) TopKState[int64] {
	return TopKState[int64]{K: m.k, Window: m.window, Now: m.now,
		Items: reference(m.items, len(m.items), 0, 0), Version: version}
}

// skyband counts the admitted items with fewer than k admitted items
// ranked before them that expire no earlier.
func (m *topkModel) skyband() int {
	n := 0
	for _, it := range m.items {
		d := 0
		for _, o := range m.items {
			if o.before(&it) && (m.window <= 0 || o.Value >= it.Value) {
				d++
			}
		}
		if d < m.k {
			n++
		}
	}
	return n
}

func seqsOf(items []TopKItem[int64]) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.Seq
	}
	return out
}

// TestTopKMatchesReference drives random insert/advance traffic — values
// lagging the watermark by up to τ like delayed emissions, ties on value
// and coverage, both window modes, restores mid-stream — and checks the
// incremental view against a from-scratch recompute at every step: the
// visible items, each Insert/Advance result, and a Version that bumps
// exactly when the visible list changes. Len must equal the k-skyband.
func TestTopKMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		window := float64(0)
		if seed%2 == 0 {
			window = 5 + 10*rng.Float64()
		}
		tau := 3 * rng.Float64()
		v := NewTopK[int64](k, window)
		m := &topkModel{k: k, window: window}
		now := 0.0
		check := func(what string, i int64, before []int64, ver uint64, changed bool) {
			t.Helper()
			want := seqsOf(m.visible())
			got := seqsOf(v.Items())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d %s: view %v, want %v", seed, i, what, got, want)
			}
			moved := !reflect.DeepEqual(before, want)
			if changed != moved {
				t.Fatalf("seed %d step %d %s: changed = %v, view %v → %v", seed, i, what, changed, before, want)
			}
			if bumped := v.Version() != ver; bumped != moved || (moved && v.Version() != ver+1) {
				t.Fatalf("seed %d step %d %s: version %d → %d, view %v → %v", seed, i, what, ver, v.Version(), before, want)
			}
		}
		for i := int64(1); i <= 300; i++ {
			now += rng.Float64()
			val := now - tau*rng.Float64()
			if rng.Intn(4) == 0 {
				val = float64(int(val)) // ties on value
			}
			it := item(rng.Intn(4), val, i)
			before, ver := seqsOf(v.Items()), v.Version()
			m.insert(it)
			check("insert", i, before, ver, v.Insert(it))
			if rng.Intn(3) > 0 {
				before, ver = seqsOf(v.Items()), v.Version()
				m.advance(now)
				check("advance", i, before, ver, v.Advance(now))
			}
			switch rng.Intn(50) {
			case 0: // own snapshot
				v = RestoreTopK(v.State())
			case 1: // a snapshot that kept every admitted candidate
				v = RestoreTopK(m.state(v.Version()))
			}
			if i%50 == 0 {
				if got, want := v.Len(), m.skyband(); got != want {
					t.Fatalf("seed %d step %d: Len %d, want k-skyband %d", seed, i, got, want)
				}
			}
		}
	}
}

// TestTopKRestoreKeepsVisible restores snapshots holding candidates that
// can never become visible — a windowless view with 4096 spares and a
// windowed one with every admitted item — and checks the restored view
// shows the same items at the same version, keeps at most the k-skyband,
// and then evolves like the from-scratch reference.
func TestTopKRestoreKeepsVisible(t *testing.T) {
	const k = 10
	for _, window := range []float64{0, 20} {
		rng := rand.New(rand.NewSource(7))
		m := &topkModel{k: k, window: window}
		for i := int64(1); i <= 4096; i++ {
			m.insert(item(rng.Intn(5), float64(i)/100-3*rng.Float64(), i))
		}
		st := m.state(4096)
		if window == 0 && len(st.Items) != 4096 {
			t.Fatalf("windowless snapshot holds %d items, want 4096", len(st.Items))
		}
		v := RestoreTopK(st)
		if got, want := seqsOf(v.Items()), seqsOf(m.visible()); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: restored view %v, want %v", window, got, want)
		}
		if v.Version() != 4096 {
			t.Errorf("window %v: restored version %d, want 4096", window, v.Version())
		}
		if sky := m.skyband(); v.Len() > sky {
			t.Errorf("window %v: restored Len %d > k-skyband %d", window, v.Len(), sky)
		}
		if window == 0 && v.Len() != k {
			t.Errorf("windowless restored Len %d, want k = %d", v.Len(), k)
		}
		for i := int64(4097); i <= 4400; i++ {
			now := float64(i) / 100
			it := item(rng.Intn(5), now-3*rng.Float64(), i)
			m.insert(it)
			v.Insert(it)
			m.advance(now)
			v.Advance(now)
			if got, want := seqsOf(v.Items()), seqsOf(m.visible()); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %v step %d: view %v, want %v", window, i, got, want)
			}
		}
	}
}

// benchPayload is the size of a delivered server emission.
type benchPayload [9]int64

// BenchmarkTopKInsert feeds a fresh k = 10 view 10,000 inserts with rising
// values (a fresh item ranks first within its coverage), without a window
// and with one 1,000 values wide that advances after every insert, as the
// server does per post; one op is the whole run.
func BenchmarkTopKInsert(b *testing.B) {
	for _, window := range []float64{0, 1000} {
		b.Run(fmt.Sprintf("window=%g", window), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				v := NewTopK[benchPayload](10, window)
				for i := 0; i < 10000; i++ {
					v.Insert(TopKItem[benchPayload]{Value: float64(i), Coverage: 1 + i%4, Seq: int64(i)})
					v.Advance(float64(i))
				}
			}
		})
	}
}

func TestTopKItemsIsACopy(t *testing.T) {
	v := NewTopK[int64](2, 0)
	v.Insert(item(1, 1, 1))
	a := v.Items()
	a[0].Payload = 99
	if got := v.Items(); got[0].Payload != 1 {
		t.Fatalf("Items aliases internal state: %+v", got)
	}
	if !reflect.DeepEqual(v.Items(), v.Items()) {
		t.Fatal("Items not stable")
	}
}
