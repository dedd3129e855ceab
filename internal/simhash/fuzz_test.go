package simhash

import (
	"testing"

	"mqdp/internal/textutil"
)

func FuzzComputeDeterministic(f *testing.F) {
	f.Add("hello world", "hello world via @x")
	f.Add("", "x")
	f.Add("a b c d e f", "a b c d e g")
	f.Fuzz(func(t *testing.T, a, b string) {
		ha1, ha2 := Compute(a), Compute(a)
		if ha1 != ha2 {
			t.Fatalf("Compute(%q) nondeterministic", a)
		}
		hb := Compute(b)
		d := Distance(ha1, hb)
		if d < 0 || d > 64 {
			t.Fatalf("distance %d out of range", d)
		}
		if Distance(hb, ha1) != d {
			t.Fatal("distance not symmetric")
		}
		if a == b && d != 0 {
			t.Fatalf("equal texts at distance %d", d)
		}
	})
}

// FuzzComputeWords holds the word-continuing fingerprint bit-identical to
// the string-shingle one it replaced: snapshots, the bench reference and
// the ablation-dedup golden all depend on fingerprints not moving.
func FuzzComputeWords(f *testing.F) {
	for _, seed := range []string{
		"", "word", "two words", "RT @User: Breaking NEWS via @CNN http://t.co/x",
		"\xff\xfe broken \xc3 utf8", "ÀÉÎ Õü ÇA COÛTE", "a b c d e f g h i j k l m n o p q r s t u v w x y z",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		words := textutil.Words(text)
		want := FromFeatures(shingles(words))
		if got := ComputeWords(words); got != want {
			t.Fatalf("ComputeWords(%q) = %016x, string shingles give %016x", words, uint64(got), uint64(want))
		}
		if got := Compute(text); got != want {
			t.Fatalf("Compute(%q) = %016x, string shingles give %016x", text, uint64(got), uint64(want))
		}
	})
}
