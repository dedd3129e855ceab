// Command mqdp-eval benchmarks every algorithm on a user-supplied dataset:
// it reads JSONL posts, runs the offline solvers (and optionally OPT) plus
// the streaming processors, and prints solution sizes, per-post times and —
// when OPT is feasible — relative errors, in the style of the paper's §7.
//
//	mqdp-datagen -kind posts -duration 600 -labels 2 | mqdp-eval -lambda 30 -tau 10 -opt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/wire"
)

func main() {
	input := flag.String("input", "-", "input file of JSONL or binary .mqdw posts, or - for stdin")
	lambda := flag.Float64("lambda", 60, "coverage threshold λ")
	tau := flag.Float64("tau", 30, "streaming decision delay τ")
	withOPT := flag.Bool("opt", false, "also run the exact DP (small instances only)")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqdp-eval: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	if err := run(r, os.Stdout, *lambda, *tau, *withOPT); err != nil {
		fmt.Fprintf(os.Stderr, "mqdp-eval: %v\n", err)
		os.Exit(1)
	}
}

// run evaluates all algorithms on the dataset from r, reporting to w.
func run(r io.Reader, w io.Writer, lambda, tau float64, withOPT bool) error {
	var dict core.Dictionary
	posts, err := wire.ReadPostsAuto(r, &dict)
	if err != nil {
		return err
	}
	inst, err := mqdp.NewInstance(posts, dict.Len())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %d posts, %d labels, overlap %.2f, λ=%v τ=%v\n\n",
		inst.Len(), dict.Len(), inst.OverlapRate(), lambda, tau)

	optSize := -1
	if withOPT {
		cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: lambda, Algorithm: mqdp.OPT})
		if err != nil {
			fmt.Fprintf(w, "OPT: skipped (%v)\n\n", err)
		} else {
			optSize = cover.Size()
			fmt.Fprintf(w, "OPT: %d posts in %v\n\n", optSize, cover.Elapsed.Round(time.Microsecond))
		}
	}

	fmt.Fprintln(w, "offline:")
	fmt.Fprintf(w, "  %-16s %8s %14s %10s\n", "algorithm", "size", "ns/post", "rel.err")
	for _, algo := range []mqdp.Algorithm{mqdp.Thinning, mqdp.Scan, mqdp.ScanPlus, mqdp.GreedySC} {
		cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: lambda, Algorithm: algo})
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		relErr := "-"
		if optSize > 0 {
			relErr = fmt.Sprintf("%.3f", float64(cover.Size()-optSize)/float64(optSize))
		}
		fmt.Fprintf(w, "  %-16s %8d %14.1f %10s\n",
			cover.Algorithm, cover.Size(), perPost(cover.Elapsed, inst.Len()), relErr)
	}

	fmt.Fprintln(w, "\nstreaming:")
	fmt.Fprintf(w, "  %-16s %8s %14s %10s %10s\n", "algorithm", "size", "ns/post", "rel.err", "max delay")
	for _, algo := range []mqdp.StreamAlgorithm{
		mqdp.StreamScan, mqdp.StreamScanPlus, mqdp.StreamGreedy, mqdp.StreamGreedyPlus, mqdp.Instant,
	} {
		proc, err := mqdp.NewStream(algo, dict.Len(), lambda, tau)
		if err != nil {
			return err
		}
		start := time.Now()
		es, err := mqdp.RunStream(inst.Posts(), proc)
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		elapsed := time.Since(start)
		sum := mqdp.SummarizeStream(es)
		relErr := "-"
		if optSize > 0 {
			relErr = fmt.Sprintf("%.3f", float64(sum.Count-optSize)/float64(optSize))
		}
		fmt.Fprintf(w, "  %-16s %8d %14.1f %10s %9.1fs\n",
			proc.Name(), sum.Count, perPost(elapsed, inst.Len()), relErr, sum.MaxDelay)
	}
	return nil
}

func perPost(d time.Duration, posts int) float64 {
	if posts == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(posts)
}
