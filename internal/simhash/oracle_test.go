package simhash

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mqdp/internal/textutil"
)

// flipBits returns h with exactly n distinct bits flipped.
func flipBits(rng *rand.Rand, h Hash, n int) Hash {
	for _, b := range rng.Perm(64)[:n] {
		h ^= 1 << uint(b)
	}
	return h
}

// TestDeduperMatchesLinearScan holds the quarter index to the whole-window
// scan on seeded streams with planted near-misses one bit inside, on and one
// bit outside the threshold — across thresholds on both sides of every
// ⌊k/4⌋ step, windows that do and do not wrap, and a State → RestoreDeduper
// round trip taken before and after the wrap.
func TestDeduperMatchesLinearScan(t *testing.T) {
	for _, k := range []int{0, 1, 3, 4, 7, 8, 10, 11, 12, 15, 16, 63} {
		for _, window := range []int{1, 7, 300, 8192} {
			t.Run(fmt.Sprintf("k=%d/window=%d", k, window), func(t *testing.T) {
				n := window + window/2 + 200 // accepts ~4/5, so the ring wraps
				rng := rand.New(rand.NewSource(int64(1000*k + window)))
				oracle := &linearDeduper{maxDistance: k, window: window}
				under := []*Deduper{NewDeduper(k, window)}
				accepted := 0
				for i := 0; i < n; i++ {
					h := Hash(rng.Uint64())
					if len(oracle.recent) > 0 && rng.Intn(3) == 0 {
						src := oracle.recent[rng.Intn(len(oracle.recent))]
						h = flipBits(rng, src, min(max(k-1+rng.Intn(3), 0), 64))
					}
					// Before the ring wraps, and after it has.
					if i == window/2 || i == n-100 {
						under = append(under, RestoreDeduper(under[0].State()))
						// (At k=63 almost everything is a duplicate of the
						// first fingerprint and only window 1 ever wraps.)
						if i == n-100 && accepted <= window && k < 32 {
							t.Fatalf("only %d accepted by step %d: the second restore is not after the wrap", accepted, i)
						}
					}
					want := oracle.offerHash(h)
					if want {
						accepted++
					}
					for j, d := range under {
						if got := d.OfferHash(h); got != want {
							t.Fatalf("step %d deduper %d: OfferHash(%016x) = %v, linear scan says %v", i, j, uint64(h), got, want)
						}
					}
				}
				if got := under[0].State().Recent; !slices.Equal(got, oracle.recent) {
					t.Fatalf("final window differs from the linear scan's: %d vs %d entries", len(got), len(oracle.recent))
				}
			})
		}
	}
}

// A negative threshold admits everything, as it always has.
func TestDeduperNegativeDistance(t *testing.T) {
	d := NewDeduper(-1, 4)
	if !d.OfferHash(7) || !d.OfferHash(7) {
		t.Error("negative maxDistance dropped a fingerprint")
	}
}

// parentStateGob is gob(DeduperState) as encoded by the map-bucket Deduper
// this one replaced: NewDeduper(10, 16) after 41 offers, one of them dropped.
const parentStateGob = "557f0301010c44656475706572537461746501ff80000105010b4d617844697374616e6365010400010657696e646f770104000106526563656e7401ff820001045365656e010400010744726f7070656401040000001cff810201010e5b5d73696d686173682e4861736801ff820001060000ff9dff80011401200110f83f33bc38570ab34af84b48ee58e61c6f74f85ae78c0e06187e05f83a62a4a95b985ec2f85f1852d7a6c9f790f8b7424456a4c56b11f897dc521af3a98622f82b6c77dfa5683e21f8c2b367ae35809f90f8b3199496e5dd9b7df8f1bc27ad2f87e45ef8cabb2d6f5049df23f802ecf3edb8b6990df8a4f170cd4c5b84bdf8e71e5f92e14d871bf85d8b5098a7bccb220152010200"

// TestRestoreParentEncodedState: snapshots written before the rewrite must
// decode into the same DeduperState and continue identically.
func TestRestoreParentEncodedState(t *testing.T) {
	raw, err := hex.DecodeString(parentStateGob)
	if err != nil {
		t.Fatal(err)
	}
	var st DeduperState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxDistance != 10 || st.Window != 16 || len(st.Recent) != 16 || st.Seen != 41 || st.Dropped != 1 {
		t.Fatalf("decoded state = %+v", st)
	}
	d := RestoreDeduper(st)
	oracle := &linearDeduper{maxDistance: 10, window: 16, recent: append([]Hash(nil), st.Recent...)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		h := flipBits(rng, oracle.recent[rng.Intn(len(oracle.recent))], 9+rng.Intn(3))
		if got, want := d.OfferHash(h), oracle.offerHash(h); got != want {
			t.Fatalf("step %d: restored deduper says %v, linear scan %v", i, got, want)
		}
	}
	var again bytes.Buffer
	if err := gob.NewEncoder(&again).Encode(RestoreDeduper(st).State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Error("re-encoding the restored state changed its gob bytes")
	}
}

// TestOfferWordsDoesNotAllocate pins the ingest path's dedup stage at zero
// allocations per post at the shipped -dedup 10 -dedup-window 8192.
func TestOfferWordsDoesNotAllocate(t *testing.T) {
	d := NewDeduper(10, 8192)
	// Distinct posts, so the runs cover the admitting path as well.
	const runs = 1000
	var posts [][]string
	for i := 0; i <= runs; i++ {
		posts = append(posts, textutil.Words(fmt.Sprintf("breaking news item %d about the senate budget vote tonight with details %d", i, i*7)))
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() {
		d.OfferWords(posts[i])
		i++
	}); avg != 0 {
		t.Errorf("OfferWords allocates %v times per post, want 0", avg)
	}
}
