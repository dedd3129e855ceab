package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d", n, got)
		}
	}
}

func TestForEachVisitsEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 97, 1000} {
			visits := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&visits[i], 1) })
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i*i + 1 }
	want := Map(1, 500, fn)
	for _, workers := range []int{2, 4, 16} {
		got := Map(workers, 500, fn)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Errorf("Map over empty range = %v, want nil", got)
	}
}

func TestOrderedResultsDeliversInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		ch := OrderedResults(workers, 100, func(i int) int { return i * 2 })
		i := 0
		for v := range ch {
			if v != i*2 {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*2)
			}
			i++
		}
		if i != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, i)
		}
	}
}

func TestOrderedResultsEmpty(t *testing.T) {
	ch := OrderedResults(4, 0, func(i int) int { return i })
	if _, ok := <-ch; ok {
		t.Error("expected closed channel for empty range")
	}
}

// TestOrderedResultsStreamsEarlyItems asserts the collector does not wait for
// the whole batch: result 0 must be deliverable while later items are still
// blocked.
func TestOrderedResultsStreamsEarlyItems(t *testing.T) {
	release := make(chan struct{})
	ch := OrderedResults(2, 3, func(i int) int {
		if i == 2 {
			<-release
		}
		return i
	})
	if v := <-ch; v != 0 {
		t.Fatalf("first result = %d, want 0", v)
	}
	if v := <-ch; v != 1 {
		t.Fatalf("second result = %d, want 1", v)
	}
	close(release)
	if v := <-ch; v != 2 {
		t.Fatalf("third result = %d, want 2", v)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after last result")
	}
}

func TestChunkSize(t *testing.T) {
	if c := chunkSize(4, 3); c != 1 {
		t.Errorf("chunkSize(4,3) = %d, want 1", c)
	}
	if c := chunkSize(2, 1000); c != 125 {
		t.Errorf("chunkSize(2,1000) = %d, want 125", c)
	}
}
