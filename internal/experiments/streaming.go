package experiments

import (
	"fmt"
	"io"
	"time"

	"mqdp/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: streaming relative error vs λ for τ ∈ {5,10,15}s (|L|=2, 10-min interval)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: streaming relative error vs τ for λ ∈ {10,15,20}s (|L|=2, 10-min interval)",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: streaming solution sizes vs overlap rate (λ=10s, τ=5s, |L|=2)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: streaming solution sizes on 1 day vs |L| (τ=30s, λ = 10min and 30min)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: StreamMQDP execution time per post vs λ (τ=300s)",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: StreamMQDP execution time per post vs τ (λ=300s)",
		Run:   runFig15,
	})
}

func runFig9(w io.Writer, sc Scale) error {
	lambdas := []float64{5, 10, 15, 20, 25, 30}
	taus := []float64{5, 10, 15}
	if sc == Smoke {
		lambdas = []float64{5, 15}
		taus = []float64{5}
	}
	in := interval(sc, 2, 1.4, 900)
	for _, tau := range taus {
		if _, err := fmt.Fprintf(w, "τ = %.0f seconds\n", tau); err != nil {
			return err
		}
		tb := newTable("lambda", "optSize", "errStreamScan", "errStreamScan+", "errStreamGreedySC", "errStreamGreedySC+")
		for _, lambda := range lambdas {
			opt, err := in.OPT(lambda, optBudget())
			if err != nil {
				return fmt.Errorf("fig9 λ=%v: %w", lambda, err)
			}
			procs, err := streamingQuartet(2, lambda, tau)
			if err != nil {
				return err
			}
			row := []any{lambda, opt.Size()}
			for _, p := range procs {
				n, err := runStreaming(in, p)
				if err != nil {
					return err
				}
				row = append(row, relErr(n, opt.Size()))
			}
			tb.add(row...)
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

func runFig10(w io.Writer, sc Scale) error {
	lambdas := []float64{10, 15, 20}
	taus := []float64{1, 3, 5, 8, 10, 12, 15, 18, 20, 25, 30, 35, 40, 45, 50, 60}
	if sc == Smoke {
		lambdas = []float64{10}
		taus = []float64{5, 10, 25}
	}
	in := interval(sc, 2, 1.4, 1000)
	for _, lambda := range lambdas {
		opt, err := in.OPT(lambda, optBudget())
		if err != nil {
			return fmt.Errorf("fig10 λ=%v: %w", lambda, err)
		}
		if _, err := fmt.Fprintf(w, "λ = %.0f seconds (opt=%d)\n", lambda, opt.Size()); err != nil {
			return err
		}
		tb := newTable("tau", "errStreamScan", "errStreamScan+", "errStreamGreedySC", "errStreamGreedySC+")
		for _, tau := range taus {
			procs, err := streamingQuartet(2, lambda, tau)
			if err != nil {
				return err
			}
			row := []any{tau}
			for _, p := range procs {
				n, err := runStreaming(in, p)
				if err != nil {
					return err
				}
				row = append(row, relErr(n, opt.Size()))
			}
			tb.add(row...)
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

func runFig11(w io.Writer, sc Scale) error {
	overlaps := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	if sc == Smoke {
		overlaps = []float64{1.0, 1.8}
	}
	lambda, tau := 10.0, 5.0
	tb := newTable("overlap", "optSize", "streamScan", "streamScan+", "streamGreedySC", "streamGreedySC+", "instant")
	for i, ov := range overlaps {
		in := interval(sc, 2, ov, 1100+int64(i))
		opt, err := in.OPT(lambda, optBudget())
		if err != nil {
			return fmt.Errorf("fig11 overlap=%v: %w", ov, err)
		}
		procs, err := streamingQuartet(2, lambda, tau)
		if err != nil {
			return err
		}
		instant, err := stream.NewInstant(2, lambda)
		if err != nil {
			return err
		}
		procs = append(procs, instant)
		row := []any{in.OverlapRate(), opt.Size()}
		for _, p := range procs {
			n, err := runStreaming(in, p)
			if err != nil {
				return err
			}
			row = append(row, n)
		}
		tb.add(row...)
	}
	return tb.write(w)
}

func runFig12(w io.Writer, sc Scale) error {
	labelCounts := []int{2, 5, 10, 20}
	if sc == Smoke {
		labelCounts = []int{2, 5}
	}
	tau := 30.0
	for _, lambdaMin := range []float64{10, 30} {
		lambda := lambdaMin * 60
		if _, err := fmt.Fprintf(w, "λ = %.0f minutes, τ = %.0fs\n", lambdaMin, tau); err != nil {
			return err
		}
		tb := newTable("|L|", "posts", "streamScan", "streamScan+", "streamGreedySC", "streamGreedySC+")
		for _, L := range labelCounts {
			in := day(sc, L, 1200+int64(L))
			procs, err := streamingQuartet(L, lambda, tau)
			if err != nil {
				return err
			}
			row := []any{L, in.Len()}
			for _, p := range procs {
				n, err := runStreaming(in, p)
				if err != nil {
					return err
				}
				row = append(row, n)
			}
			tb.add(row...)
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

func runFig14(w io.Writer, sc Scale) error {
	lambdas := []float64{10, 60, 300, 600, 1800}
	if sc == Smoke {
		lambdas = []float64{60, 600}
	}
	return streamTiming(w, sc, "lambda(s)", lambdas, func(L int, x float64) (float64, float64) {
		return x, 300 // λ = x, τ = 300s
	})
}

func runFig15(w io.Writer, sc Scale) error {
	taus := []float64{10, 60, 300, 600, 1800}
	if sc == Smoke {
		taus = []float64{60, 600}
	}
	return streamTiming(w, sc, "tau(s)", taus, func(L int, x float64) (float64, float64) {
		return 300, x // λ = 300s, τ = x
	})
}

// streamTiming measures per-post processing time of the streaming quartet
// over the day-scale stream for each |L| and sweep value: the median of
// timedCalls runs, each on fresh processors, after a warm-up run.
func streamTiming(w io.Writer, sc Scale, xName string, xs []float64, params func(L int, x float64) (lambda, tau float64)) error {
	for _, L := range labelSweep(sc) {
		in := day(sc, L, 1500+int64(L))
		if _, err := fmt.Fprintf(w, "|L| = %d (%d posts)\n", L, in.Len()); err != nil {
			return err
		}
		tb := newTable(xName, "streamScan ns/post", "streamScan+ ns/post", "streamGreedySC ns/post", "streamGreedySC+ ns/post")
		for _, x := range xs {
			lambda, tau := params(L, x)
			row := []any{x}
			for j := 0; j < 4; j++ {
				d, err := medianTime(func() (time.Duration, error) {
					procs, err := streamingQuartet(L, lambda, tau)
					if err != nil {
						return 0, err
					}
					start := time.Now()
					_, err = runStreaming(in, procs[j])
					return time.Since(start), err
				})
				if err != nil {
					return err
				}
				row = append(row, perPost(d, in.Len()))
			}
			tb.add(row...)
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
