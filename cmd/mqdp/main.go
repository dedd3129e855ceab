// Command mqdp diversifies a post collection (the offline MQDP, Problem 1).
//
// Input is JSON lines on stdin or -input, one post per line:
//
//	{"id": 17, "value": 1370000000, "labels": ["obama", "economy"]}
//
// where value is the post's coordinate on the diversity dimension (e.g. a
// unix timestamp or a sentiment score). Binary .mqdw files (mqdp-datagen
// -o posts.mqdw) are detected automatically by their magic bytes. The
// selected representative posts are printed back in the input's spirit —
// JSON lines by default, or the binary frame format when -output ends in
// .mqdw; a summary goes to stderr.
//
//	mqdp -lambda 3600 -algo greedysc < posts.jsonl > cover.jsonl
//	mqdp -lambda 3600 -input posts.mqdw -output cover.mqdw
//	mqdp-datagen -kind posts | mqdp -lambda 60 -algo scan+
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/wire"
)

func main() {
	input := flag.String("input", "-", "input file of JSONL or binary .mqdw posts, or - for stdin")
	output := flag.String("output", "-", "output file for the cover (.mqdw selects the binary format), or - for stdout")
	lambda := flag.Float64("lambda", 60, "coverage threshold λ on the diversity dimension")
	algo := flag.String("algo", "scan", "algorithm: scan, scan+, greedysc, opt, exhaustive")
	proportional := flag.Bool("proportional", false, "use §6 density-adaptive thresholds (λ is λ0)")
	stats := flag.Bool("stats", false, "print cover analytics to stderr")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqdp: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	out := io.Writer(os.Stdout)
	if *output != "-" {
		f, err := os.Create(*output)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqdp: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	binaryOut := strings.HasSuffix(*output, ".mqdw")
	if err := run(r, out, os.Stderr, *lambda, *algo, *proportional, *stats, binaryOut); err != nil {
		fmt.Fprintf(os.Stderr, "mqdp: %v\n", err)
		os.Exit(1)
	}
}

// run reads posts from r (JSONL or binary, sniffed), solves, and writes
// the cover to out and a summary line to errw.
func run(r io.Reader, out, errw io.Writer, lambda float64, algoName string, proportional, withStats, binaryOut bool) error {
	var dict core.Dictionary
	posts, err := wire.ReadPostsAuto(r, &dict)
	if err != nil {
		return err
	}
	inst, err := mqdp.NewInstance(posts, dict.Len())
	if err != nil {
		return err
	}
	algo, err := parseAlgo(algoName)
	if err != nil {
		return err
	}
	cover, err := mqdp.Solve(inst, mqdp.Options{
		Lambda:       lambda,
		Algorithm:    algo,
		Proportional: proportional,
	})
	if err != nil {
		return err
	}
	if binaryOut {
		bw := wire.NewBinaryWriter(out, &dict)
		for _, i := range cover.Selected {
			if err := bw.Write(inst.Post(i)); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	} else {
		w := wire.NewWriter(out, &dict)
		for _, i := range cover.Selected {
			if err := w.Write(inst.Post(i)); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(errw, "mqdp: %s selected %d of %d posts (λ=%v, %d labels) in %v\n",
		cover.Algorithm, cover.Size(), inst.Len(), lambda, dict.Len(), cover.Elapsed.Round(1000))
	if withStats && !proportional {
		st, err := inst.Stats(core.FixedLambda(lambda), cover.Selected)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "mqdp: compression %.3f, mean coverers/pair %.2f, max pair distance %.3g\n",
			st.CompressionRatio, st.MeanCoverers, st.MaxPairDistance)
		for _, ls := range st.PerLabel {
			fmt.Fprintf(errw, "mqdp:   %-20s %5d posts → %4d representatives (max gap %.3g)\n",
				dict.Name(ls.Label), ls.Posts, ls.Representatives, ls.MaxGap)
		}
	}
	return nil
}

func parseAlgo(name string) (mqdp.Algorithm, error) {
	switch strings.ToLower(name) {
	case "scan":
		return mqdp.Scan, nil
	case "scan+", "scanplus":
		return mqdp.ScanPlus, nil
	case "greedysc", "greedy":
		return mqdp.GreedySC, nil
	case "opt":
		return mqdp.OPT, nil
	case "exhaustive":
		return mqdp.Exhaustive, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}
