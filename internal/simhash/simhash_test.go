package simhash

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestIdenticalTextsCollide(t *testing.T) {
	a := Compute("obama signs the budget bill tonight")
	b := Compute("obama signs the budget bill tonight")
	if a != b {
		t.Errorf("identical texts got different hashes %x %x", a, b)
	}
}

func TestNearDuplicatesAreClose(t *testing.T) {
	a := Compute("breaking: senate passes the budget deal after long night of votes")
	b := Compute("breaking: senate passes the budget deal after long night of votes via @cnn")
	c := Compute("lakers beat the celtics in overtime thriller at the garden")
	if d := Distance(a, b); d > 16 {
		t.Errorf("near-duplicates at distance %d, want small", d)
	}
	if d := Distance(a, c); d < 16 {
		t.Errorf("unrelated texts at distance %d, want large", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	if Distance(0, 0) != 0 {
		t.Error("Distance(x,x) != 0")
	}
	if Distance(0, ^Hash(0)) != 64 {
		t.Error("Distance(0, ~0) != 64")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a, b := Hash(rng.Uint64()), Hash(rng.Uint64())
		if Distance(a, b) != Distance(b, a) {
			t.Fatalf("distance not symmetric for %x %x", a, b)
		}
	}
}

func TestFromFeaturesEmpty(t *testing.T) {
	if got := FromFeatures(nil); got != 0 {
		t.Errorf("empty features hash = %x, want 0", got)
	}
}

func TestDeduperDropsExactDuplicates(t *testing.T) {
	d := NewDeduper(0, 100)
	if !d.Offer("first post about the election") {
		t.Fatal("first offer rejected")
	}
	if d.Offer("first post about the election") {
		t.Error("exact duplicate accepted")
	}
	if !d.Offer("completely different sports content here") {
		t.Error("novel text rejected")
	}
	seen, dropped := d.Stats()
	if seen != 3 || dropped != 1 {
		t.Errorf("stats = (%d, %d), want (3, 1)", seen, dropped)
	}
}

func TestDeduperNearDuplicateThreshold(t *testing.T) {
	d := NewDeduper(3, 100)
	base := Hash(0xDEADBEEFCAFE1234)
	if !d.OfferHash(base) {
		t.Fatal("base rejected")
	}
	if d.OfferHash(base ^ 0x7) { // 3 bits differ
		t.Error("3-bit variant accepted, want dropped")
	}
	if !d.OfferHash(base ^ 0xF) { // 4 bits differ
		t.Error("4-bit variant dropped, want accepted")
	}
}

func TestDeduperWindowEviction(t *testing.T) {
	d := NewDeduper(0, 2)
	h1, h2, h3 := Hash(1), Hash(2), Hash(4)
	for _, h := range []Hash{h1, h2, h3} {
		if !d.OfferHash(h) {
			t.Fatalf("novel hash %x rejected", h)
		}
	}
	// h1 was evicted by h3; it should now be accepted again.
	if !d.OfferHash(h1) {
		t.Error("evicted hash still treated as duplicate")
	}
	// h3 is still in the window.
	if d.OfferHash(h3) {
		t.Error("in-window duplicate accepted")
	}
}

func TestDeduperLargeDistance(t *testing.T) {
	d := NewDeduper(10, 16)
	base := Hash(0xAAAAAAAAAAAAAAAA)
	if !d.OfferHash(base) {
		t.Fatal("base rejected")
	}
	if d.OfferHash(base ^ 0x3FF) { // 10 bits differ
		t.Error("10-bit variant accepted with maxDistance 10")
	}
	if !d.OfferHash(base ^ 0x7FF) { // 11 bits differ
		t.Error("11-bit variant dropped with maxDistance 10")
	}
}

func TestDeduperBucketConsistencyUnderChurn(t *testing.T) {
	// Hammer a small window with random hashes; verify the quarter index
	// agrees with brute force on every decision.
	rng := rand.New(rand.NewSource(7))
	d := NewDeduper(3, 8)
	var window []Hash
	for i := 0; i < 500; i++ {
		var h Hash
		if len(window) > 0 && rng.Intn(3) == 0 {
			h = window[rng.Intn(len(window))] ^ Hash(1<<uint(rng.Intn(64))) // near-dup
		} else {
			h = Hash(rng.Uint64())
		}
		wantDup := false
		for _, w := range window {
			if Distance(w, h) <= 3 {
				wantDup = true
				break
			}
		}
		got := d.OfferHash(h)
		if got == wantDup {
			t.Fatalf("step %d: OfferHash(%x) = %v, brute force duplicate = %v", i, h, got, wantDup)
		}
		if got {
			window = append(window, h)
			if len(window) > 8 {
				window = window[1:]
			}
		}
	}
}

func TestDeduperMinimumWindow(t *testing.T) {
	d := NewDeduper(0, 0) // clamped to 1
	if !d.OfferHash(1) || d.OfferHash(1) {
		t.Error("window-1 deduper misbehaved on immediate duplicate")
	}
	if !d.OfferHash(2) || !d.OfferHash(1) {
		t.Error("window-1 deduper should forget after one accept")
	}
}

func BenchmarkCompute(b *testing.B) {
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("breaking news item %d about the senate budget vote tonight with details %d", i, i*7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(texts[i%len(texts)])
	}
}
