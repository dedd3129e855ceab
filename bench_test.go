// Benchmarks: one per paper table/figure (driving the experiment harness at
// smoke scale) plus micro-benchmarks of the individual solvers and streaming
// processors. Regenerate the full-scale numbers with:
//
//	go run ./cmd/mqdp-bench -run all
package mqdp_test

import (
	"io"
	"testing"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/experiments"
	"mqdp/internal/stream"
	"mqdp/internal/synth"
)

// benchExperiment reruns a registered experiment at smoke scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, experiments.Smoke); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1LDATopics(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable2MatchingRate(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig6ErrorVsOverlap(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7ErrorVsLambda(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8SizesOneDay(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9StreamErrVsLambda(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10StreamErrVsTau(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11StreamSizeOverlap(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12StreamSizesOneDay(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13TimeVsLambda(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14StreamTimeVsLambda(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15StreamTimeVsTau(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkHardnessReduction(b *testing.B)       { benchExperiment(b, "hardness") }
func BenchmarkProportionalDiversity(b *testing.B)   { benchExperiment(b, "prop") }
func BenchmarkAblationScanPlusOrder(b *testing.B)   { benchExperiment(b, "ablation-scanplus") }
func BenchmarkAblationSimHashDedup(b *testing.B)    { benchExperiment(b, "ablation-dedup") }
func BenchmarkAblationGreedyLazyHeap(b *testing.B)  { benchExperiment(b, "ablation-greedy") }
func BenchmarkExtSpatial(b *testing.B)              { benchExperiment(b, "ext-spatial") }
func BenchmarkExtAdaptive(b *testing.B)             { benchExperiment(b, "ext-adaptive") }
func BenchmarkExtExpansion(b *testing.B)            { benchExperiment(b, "ext-expansion") }
func BenchmarkExtWindows(b *testing.B)              { benchExperiment(b, "ext-windows") }

// benchInstance builds a reusable mid-size workload.
func benchInstance(b *testing.B, numLabels int, duration float64) *core.Instance {
	b.Helper()
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration:   duration,
		RatePerSec: 2,
		NumLabels:  numLabels,
		Overlap:    1.5,
		Seed:       42,
	})
	in, err := core.NewInstance(posts, numLabels)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkSolverScan(b *testing.B) {
	in := benchInstance(b, 5, 3600)
	lm := core.FixedLambda(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.Scan(lm)
	}
}

// Scan's sharded and serial paths are compared by BenchmarkSolverScanShard
// in internal/core, which can force its sharding threshold.

func BenchmarkSolverScanPlus(b *testing.B) {
	in := benchInstance(b, 5, 3600)
	lm := core.FixedLambda(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.ScanPlus(lm, core.OrderByID)
	}
}

func BenchmarkSolverGreedySC(b *testing.B) {
	in := benchInstance(b, 5, 3600)
	lm := core.FixedLambda(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.GreedySC(lm)
	}
}

func BenchmarkSolverOPTSmall(b *testing.B) {
	in := benchInstance(b, 2, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.OPT(5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamScanProcessor(b *testing.B) {
	in := benchInstance(b, 5, 3600)
	posts := in.Posts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := stream.NewScan(5, 60, 30, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.Run(posts, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamGreedyProcessor(b *testing.B) {
	in := benchInstance(b, 5, 3600)
	posts := in.Posts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := stream.NewGreedy(5, 60, 30, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.Run(posts, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeSolve(b *testing.B) {
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration: 600, RatePerSec: 2, NumLabels: 3, Seed: 7,
	})
	inst, err := mqdp.NewInstance(posts, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mqdp.Solve(inst, mqdp.Options{Lambda: 30, Algorithm: mqdp.GreedySC}); err != nil {
			b.Fatal(err)
		}
	}
}
