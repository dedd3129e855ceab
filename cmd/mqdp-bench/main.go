// Command mqdp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mqdp-bench -list
//	mqdp-bench -run fig6,fig7          # specific experiments
//	mqdp-bench -run all                # everything (default)
//	mqdp-bench -run all -scale smoke   # fast sanity pass
//	mqdp-bench -run all -parallel 4    # 4 experiments in flight at once
//
// Output is the text tables recorded in EXPERIMENTS.md. With -parallel N the
// experiments execute concurrently but their outputs are buffered and flushed
// in registration order, so the tables are byte-identical to a serial run
// (only the wall-clock footers differ). Solver and index micro-timings are
// `go test -bench` benchmarks (bench_test.go, internal/index); everything
// about the serving path is measured by the load harness in bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mqdp/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	scale := flag.String("scale", "full", "workload scale: full or smoke")
	format := flag.String("format", "text", "table format: text or md")
	par := flag.Int("parallel", 1, "experiments in flight at once (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	sc := experiments.Full
	switch strings.ToLower(*scale) {
	case "full":
	case "smoke":
		sc = experiments.Smoke
	default:
		fmt.Fprintf(os.Stderr, "mqdp-bench: unknown scale %q (want full or smoke)\n", *scale)
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "mqdp-bench: unknown experiment %q; try -list\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	md := false
	switch strings.ToLower(*format) {
	case "text":
	case "md":
		md = true
	default:
		fmt.Fprintf(os.Stderr, "mqdp-bench: unknown format %q (want text or md)\n", *format)
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "mqdp-bench: negative -parallel %d\n", *par)
		os.Exit(2)
	}
	for r := range experiments.RunConcurrent(selected, sc, *par, md) {
		fmt.Printf("=== %s — %s\n", r.Experiment.ID, r.Experiment.Title)
		os.Stdout.Write(r.Output)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "mqdp-bench: %s: %v\n", r.Experiment.ID, r.Err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n\n", r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	}
}
