package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mqdp/internal/core"
	"mqdp/internal/synth"
)

// BenchmarkSolverScanShard times one Scan call with its sharding threshold
// forced to 0 (per-label passes on GOMAXPROCS goroutines) and to never (one
// serial pass), on the bench-size instance, two half-day instances around
// the threshold and two one-day instances. Each op is a pause, which lets
// the other cores go idle as they are before a one-shot Solve, then one
// timed call: read the ns/call metric (ns/op includes the pause). Back to
// back, with every core busy, sharding wins from a much smaller instance.
// Re-derive scanShardMin from the smallest instance where sharded wins:
//
//	go test -run '^$' -bench SolverScanShard ./internal/core
func BenchmarkSolverScanShard(b *testing.B) {
	for _, c := range []struct {
		name     string
		labels   int
		duration float64
		lambda   float64
	}{
		{"1h-L5", 5, 3600, 60},
		{"12h-L2", 2, 43200, 60},
		{"12h-L5", 5, 43200, 60},
		{"1day-L5", 5, 86400, 600},
		{"1day-L20", 20, 86400, 600},
	} {
		posts := synth.GeneratePosts(synth.PostStreamConfig{
			Duration: c.duration, RatePerSec: 2, NumLabels: c.labels, Overlap: 1.5, Seed: 42,
		})
		in, err := core.NewInstance(posts, c.labels)
		if err != nil {
			b.Fatal(err)
		}
		lm := core.FixedLambda(c.lambda)
		for _, path := range []struct {
			name string
			min  int
		}{{"sharded", 0}, {"serial", math.MaxInt}} {
			b.Run(fmt.Sprintf("%s-%dpairs/%s", c.name, in.Pairs(), path.name), func(b *testing.B) {
				defer core.SetScanShardMin(path.min)()
				var calls time.Duration
				for i := 0; i < b.N; i++ {
					time.Sleep(time.Millisecond)
					start := time.Now()
					_ = in.Scan(lm)
					calls += time.Since(start)
				}
				b.ReportMetric(float64(calls.Nanoseconds())/float64(b.N), "ns/call")
			})
		}
	}
}
