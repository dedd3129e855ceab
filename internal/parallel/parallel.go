// Package parallel provides the bounded fan-out primitives used by Scan's
// per-label shards and the experiment harness:
// a worker-count resolver, a chunked dynamic ForEach/Map over an index
// space, and an ordered-merge collector that streams results in index order.
//
// Every helper is deterministic in its *results*: fn(i) writes only to the
// i-th output slot (or is delivered strictly in index order), so callers
// observe the same values regardless of goroutine scheduling. Only wall-clock
// time varies with the worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism degree: 0 (or any negative value)
// means GOMAXPROCS, anything positive is taken as-is. The result is ≥ 1.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// chunkSize picks the unit of work handed to a worker per grab: small enough
// to balance uneven item costs (per-label lists are often skewed), large
// enough that the atomic counter is not contended on fine-grained items.
func chunkSize(workers, n int) int {
	c := n / (workers * 4)
	if c < 1 {
		c = 1
	}
	return c
}

// ForEach invokes fn(i) for every i in [0, n) using up to workers goroutines
// and returns once all calls have completed. Chunks of indexes are handed out
// dynamically from a shared counter, so uneven per-item costs still balance.
// With workers ≤ 1 or n ≤ 1 it runs inline on the calling goroutine.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := int64(chunkSize(workers, n))
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := atomic.AddInt64(&next, chunk) - chunk
				if lo >= int64(n) {
					return
				}
				hi := lo + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				for i := lo; i < hi; i++ {
					fn(int(i))
				}
			}
		}()
	}
	wg.Wait()
}

// Map invokes fn(i) for every i in [0, n) with ForEach and collects the
// results in index order. The output is identical to a serial loop for any
// worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// OrderedResults runs fn over [0, n) on up to workers goroutines and delivers
// each result strictly in index order, as soon as it and every earlier result
// are ready. The returned channel is closed after result n-1. This is the
// merge collector behind the concurrent experiment harness: long-running
// items overlap in time while output stays in registration order.
func OrderedResults[T any](workers, n int, fn func(i int) T) <-chan T {
	out := make(chan T)
	if n <= 0 {
		close(out)
		return out
	}
	slots := make([]chan T, n)
	for i := range slots {
		slots[i] = make(chan T, 1)
	}
	go ForEach(workers, n, func(i int) { slots[i] <- fn(i) })
	go func() {
		defer close(out)
		for _, slot := range slots {
			out <- <-slot
		}
	}()
	return out
}
