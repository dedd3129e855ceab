package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"mqdp/internal/core"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: relative errors and solution sizes vs post overlap rate (|L|=3, λ=5s, 10-min interval)",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: relative solution size error vs λ (|L|=2, 10-min interval)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: solution sizes on 1 day of posts vs |L| (λ = 10min and 30min)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: MQDP execution time per post vs λ (|L| = 2, 5, 20)",
		Run:   runFig13,
	})
}

// fig6 sweeps the generator's overlap knob; each setting is one "label set"
// scatter point of Figures 6a-6d.
func runFig6(w io.Writer, sc Scale) error {
	overlaps := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6}
	seedsPer := 3
	if sc == Smoke {
		overlaps = []float64{1.0, 1.6, 2.2}
		seedsPer = 1
	}
	tb := newTable("overlap", "optSize", "errScan", "errScan+", "errGreedySC", "scan", "scan+", "greedy")
	for _, ov := range overlaps {
		for s := 0; s < seedsPer; s++ {
			in := interval(sc, 3, ov, 600+int64(s))
			lambda := 5.0
			opt, err := in.OPT(lambda, optBudget())
			if err != nil {
				return fmt.Errorf("fig6 overlap %v: %w", ov, err)
			}
			lm := core.FixedLambda(lambda)
			scan := in.Scan(lm)
			scanPlus := in.ScanPlus(lm, core.OrderByID)
			greedy := in.GreedySC(lm)
			tb.add(in.OverlapRate(), opt.Size(),
				relErr(scan.Size(), opt.Size()),
				relErr(scanPlus.Size(), opt.Size()),
				relErr(greedy.Size(), opt.Size()),
				scan.Size(), scanPlus.Size(), greedy.Size())
		}
	}
	return tb.write(w)
}

func runFig7(w io.Writer, sc Scale) error {
	lambdas := []float64{5, 10, 15, 20, 25, 30}
	if sc == Smoke {
		lambdas = []float64{5, 15}
	}
	in := interval(sc, 2, 1.4, 700)
	tb := newTable("lambda", "optSize", "errScan", "errScan+", "errGreedySC")
	for _, lambda := range lambdas {
		opt, err := in.OPT(lambda, optBudget())
		if err != nil {
			return fmt.Errorf("fig7 λ=%v: %w", lambda, err)
		}
		lm := core.FixedLambda(lambda)
		tb.add(lambda, opt.Size(),
			relErr(in.Scan(lm).Size(), opt.Size()),
			relErr(in.ScanPlus(lm, core.OrderByID).Size(), opt.Size()),
			relErr(in.GreedySC(lm).Size(), opt.Size()))
	}
	return tb.write(w)
}

func runFig8(w io.Writer, sc Scale) error {
	labelCounts := []int{2, 5, 10, 20}
	if sc == Smoke {
		labelCounts = []int{2, 5}
	}
	for _, lambdaMin := range []float64{10, 30} {
		lambda := lambdaMin * 60
		if _, err := fmt.Fprintf(w, "λ = %.0f minutes\n", lambdaMin); err != nil {
			return err
		}
		tb := newTable("|L|", "posts", "scan", "scan+", "greedySC")
		for _, L := range labelCounts {
			in := day(sc, L, 800+int64(L))
			lm := core.FixedLambda(lambda)
			tb.add(L, in.Len(),
				in.Scan(lm).Size(),
				in.ScanPlus(lm, core.OrderByID).Size(),
				in.GreedySC(lm).Size())
		}
		if err := tb.write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig13(w io.Writer, sc Scale) error {
	lambdas := []float64{10, 60, 300, 600, 1800}
	if sc == Smoke {
		lambdas = []float64{60, 600}
	}
	for _, L := range labelSweep(sc) {
		in := day(sc, L, 1300+int64(L))
		if _, err := fmt.Fprintf(w, "|L| = %d (%d posts)\n", L, in.Len()); err != nil {
			return err
		}
		tb := newTable("lambda(s)", "scan ns/post", "scan+ ns/post", "greedySC ns/post")
		cell := func(solve func() *core.Cover) float64 {
			d, _ := medianTime(func() (time.Duration, error) { return solve().Elapsed, nil })
			return perPost(d, in.Len())
		}
		for _, lambda := range lambdas {
			lm := core.FixedLambda(lambda)
			tb.add(lambda,
				cell(func() *core.Cover { return in.Scan(lm) }),
				cell(func() *core.Cover { return in.ScanPlus(lm, core.OrderByID) }),
				cell(func() *core.Cover { return in.GreedySC(lm) }))
		}
		if err := tb.write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "note: greedySC here is the lazy-heap implementation, whose cost is flat in λ;\n"+
		"the paper's rescan-all loop (faster at large λ, far slower overall) is measured in ablation-greedy.")
	return err
}

func labelSweep(sc Scale) []int {
	if sc == Smoke {
		return []int{2, 5}
	}
	return []int{2, 5, 20}
}

// timedCalls is the number of timed calls behind each timing cell of
// fig13–15. One untimed call runs first, so a cell measures neither the
// cores waking from idle nor the caches filling.
const timedCalls = 5

// medianTime calls run once untimed, then timedCalls times, and returns the
// median of the durations those calls report.
func medianTime(run func() (time.Duration, error)) (time.Duration, error) {
	if _, err := run(); err != nil {
		return 0, err
	}
	var ds [timedCalls]time.Duration
	for i := range ds {
		d, err := run()
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	slices.Sort(ds[:])
	return ds[timedCalls/2], nil
}

func perPost(d time.Duration, posts int) float64 {
	if posts == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(posts)
}
