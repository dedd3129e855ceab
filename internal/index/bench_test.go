package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// benchIndex builds the benchmark corpus: n docs in time order, a handful of
// common terms plus one rare term, sealed into segments of segSize. The
// interesting regime for time-skipping is a narrow window over a large
// index, which is what the paper's real-time queries look like.
func benchIndex(n, segSize int) *Index {
	rng := rand.New(rand.NewSource(1))
	ix := NewWithSegmentSize(segSize)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("obama w%d w%d", i%17, rng.Intn(50))
		if i%97 == 0 {
			text += " rare"
		}
		if err := ix.Add(Doc{ID: int64(i), Time: float64(i), Text: text}); err != nil {
			panic(err)
		}
	}
	return ix
}

const (
	benchDocs    = 200_000
	benchSegSize = 4096
)

// BenchmarkTermQueryRange measures a narrow-window (0.5% of the corpus)
// term lookup: the skipping path against the linear-scan reference.
func BenchmarkTermQueryRange(b *testing.B) {
	ix := benchIndex(benchDocs, benchSegSize)
	lo, hi := float64(benchDocs)*0.75, float64(benchDocs)*0.755
	b.Run("skip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.TermQuery("obama", lo, hi)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.TermQueryScan("obama", lo, hi)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

// BenchmarkAllQueryGalloping measures an AND of one dense and one rare term
// over the full corpus: galloping intersection against the two-pointer merge
// over linearly filtered lists.
func BenchmarkAllQueryGalloping(b *testing.B) {
	ix := benchIndex(benchDocs, benchSegSize)
	terms := []string{"obama", "rare"}
	b.Run("gallop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.AllQuery(terms, 0, benchDocs)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.AllQueryScan(terms, 0, benchDocs)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

// BenchmarkSearchTopK measures a top-10 TF-IDF search over the same narrow
// window: time-skipping postings into a bounded heap against the linear scan
// that scores everything in range and sorts it in full.
func BenchmarkSearchTopK(b *testing.B) {
	ix := benchIndex(benchDocs, benchSegSize)
	lo, hi := float64(benchDocs)*0.75, float64(benchDocs)*0.755
	const query = "obama w3 rare"
	b.Run("skip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.Search(query, 10, lo, hi)) != 10 {
				b.Fatal("short result")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ix.SearchScan(query, 10, lo, hi)) != 10 {
				b.Fatal("short result")
			}
		}
	})
}

// BenchmarkConcurrentReadersWithWriter measures query throughput with every
// CPU running readers while one goroutine appends continuously — the
// read-path scaling the snapshot design exists for. ns/op is per query.
func BenchmarkConcurrentReadersWithWriter(b *testing.B) {
	ix := benchIndex(benchDocs, benchSegSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := float64(benchDocs)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			t++
			_ = ix.Add(Doc{ID: int64(benchDocs + i), Time: t, Text: "obama fresh w3"})
		}
	}()
	lo, hi := float64(benchDocs)*0.75, float64(benchDocs)*0.755
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if len(ix.TermQuery("obama", lo, hi)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
