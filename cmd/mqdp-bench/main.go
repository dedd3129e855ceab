// Command mqdp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mqdp-bench -list
//	mqdp-bench -run fig6,fig7          # specific experiments
//	mqdp-bench -run all                # everything (default)
//	mqdp-bench -run all -scale smoke   # fast sanity pass
//	mqdp-bench -run all -parallel 4    # 4 experiments in flight at once
//	mqdp-bench -json                   # machine-readable solver timing baseline
//
// Output is the text tables recorded in EXPERIMENTS.md. With -parallel N the
// experiments execute concurrently but their outputs are buffered and flushed
// in registration order, so the tables are byte-identical to a serial run
// (only the wall-clock footers differ). -json ignores -run and emits the
// serial-vs-parallel solver timing baseline tracked in BENCH_baseline.json,
// including a "counters" section of obs work counters (posts scanned, gains
// recomputed, heap operations). -json-index likewise ignores -run and emits
// the inverted-index read-path baseline tracked in BENCH_index.json: each
// optimized query path (time-skipping term lookup, galloping intersection,
// bounded top-k search) measured against its naive linear-scan reference in
// the same run, plus the index obs counters. Everything about the serving
// path (wire formats, push latency, tracing overhead, routing fan-out, WAL
// cost) is measured by the load harness in bench/ instead.
// -trace-dump FILE wires the span tracer and writes the bounded span journal
// to FILE after the run ("-" for stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mqdp/internal/core"
	"mqdp/internal/experiments"
	"mqdp/internal/index"
	"mqdp/internal/obs"
	"mqdp/internal/parallel"
	"mqdp/internal/stream"
	"mqdp/internal/synth"
)

// traceCapacity bounds the in-memory span journal; older spans are dropped
// once it wraps (the Dump trailer reports how many).
const traceCapacity = 4096

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	scale := flag.String("scale", "full", "workload scale: full or smoke")
	format := flag.String("format", "text", "table format: text or md")
	par := flag.Int("parallel", 1, "experiments in flight at once (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the solver timing baseline as JSON and exit")
	jsonIndex := flag.Bool("json-index", false, "emit the index read-path baseline as JSON and exit")
	traceDump := flag.String("trace-dump", "", "write the solver span journal to this file after the run (- for stderr); empty disables tracing")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	// Instrumentation is wired only when a flag asks for it, so the plain
	// table runs keep the solvers on their no-op fast path.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *jsonOut || *jsonIndex || *traceDump != "" {
		reg = obs.NewRegistry()
		if *traceDump != "" {
			tracer = obs.NewTracer(traceCapacity)
			reg.SetTracer(tracer) // attach before wiring: packages capture it at SetObs
		}
		core.SetObs(reg)
		stream.SetObs(reg)
		index.SetObs(reg)
	}
	dumpTrace := func() {
		if tracer == nil {
			return
		}
		if err := writeTrace(*traceDump, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "mqdp-bench: trace dump: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		if err := writeBaseline(os.Stdout, reg); err != nil {
			fmt.Fprintf(os.Stderr, "mqdp-bench: %v\n", err)
			os.Exit(1)
		}
		dumpTrace()
		return
	}
	if *jsonIndex {
		if err := writeIndexBaseline(os.Stdout, reg); err != nil {
			fmt.Fprintf(os.Stderr, "mqdp-bench: %v\n", err)
			os.Exit(1)
		}
		dumpTrace()
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
	dumpTrace()
}

// writeTrace dumps the span journal to path ("-" means stderr).
func writeTrace(path string, tr *obs.Tracer) error {
	if path == "-" {
		return tr.Dump(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Baseline is the machine-readable timing record emitted by -json and
// checked in as BENCH_baseline.json (regenerate with `make bench-json`).
// Timings are medians over Runs solves; Speedup maps each solver to
// serial-median / parallel-median on this machine. Counters are the obs
// work counters accumulated over every timed solve (schema 2): unlike the
// timings they are machine-independent, so they double as a cheap
// regression check on algorithmic work (posts scanned, gains recomputed,
// heap operations).
type Baseline struct {
	Schema     int                `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Workload   BaselineWorkload   `json:"workload"`
	Runs       int                `json:"runs"`
	Solvers    []SolverTiming     `json:"solvers"`
	Speedup    map[string]float64 `json:"speedup_parallel_vs_serial"`
	Counters   map[string]int64   `json:"counters"`
}

// BaselineWorkload records the synthetic instance the timings were taken on.
type BaselineWorkload struct {
	Labels     int     `json:"labels"`
	DurationS  float64 `json:"duration_s"`
	RatePerSec float64 `json:"rate_per_sec"`
	Overlap    float64 `json:"overlap"`
	Seed       int64   `json:"seed"`
	Lambda     float64 `json:"lambda"`
	Posts      int     `json:"posts"`
}

// SolverTiming is one (solver, mode) measurement.
type SolverTiming struct {
	Solver    string `json:"solver"`
	Mode      string `json:"mode"` // "serial" or "parallel"
	Workers   int    `json:"workers"`
	MedianNs  int64  `json:"median_ns"`
	MinNs     int64  `json:"min_ns"`
	CoverSize int    `json:"cover_size"`
}

// baselineRuns is the per-(solver, mode) sample count; medians of 9 runs are
// stable enough to track a trajectory across perf PRs.
const baselineRuns = 9

func writeBaseline(w *os.File, reg *obs.Registry) error {
	wl := BaselineWorkload{
		Labels: 8, DurationS: 3600, RatePerSec: 4, Overlap: 1.5, Seed: 42, Lambda: 60,
	}
	posts := synth.GeneratePosts(synth.PostStreamConfig{
		Duration:   wl.DurationS,
		RatePerSec: wl.RatePerSec,
		NumLabels:  wl.Labels,
		Overlap:    wl.Overlap,
		Seed:       wl.Seed,
	})
	in, err := core.NewInstance(posts, wl.Labels)
	if err != nil {
		return err
	}
	wl.Posts = in.Len()
	lm := core.FixedLambda(wl.Lambda)
	workers := parallel.Workers(0)
	b := Baseline{
		Schema:     2,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: workers,
		NumCPU:     runtime.NumCPU(),
		Workload:   wl,
		Runs:       baselineRuns,
		Speedup:    map[string]float64{},
	}
	type variant struct {
		solver string
		mode   string
		w      int
		run    func(w int) *core.Cover
	}
	variants := []variant{
		{"Scan", "serial", 1, func(w int) *core.Cover { return in.ScanParallel(lm, w) }},
		{"Scan", "parallel", workers, func(w int) *core.Cover { return in.ScanParallel(lm, w) }},
		{"Scan+", "serial", 1, func(w int) *core.Cover { return in.ScanPlusParallel(lm, core.OrderByID, w) }},
		{"Scan+", "parallel", workers, func(w int) *core.Cover { return in.ScanPlusParallel(lm, core.OrderByID, w) }},
		{"GreedySC", "serial", 1, func(w int) *core.Cover { return in.GreedySCParallel(lm, w) }},
		{"GreedySC", "parallel", workers, func(w int) *core.Cover { return in.GreedySCParallel(lm, w) }},
	}
	medians := map[string]map[string]int64{}
	for _, v := range variants {
		samples := make([]time.Duration, 0, baselineRuns)
		var size int
		for r := 0; r < baselineRuns; r++ {
			start := time.Now()
			c := v.run(v.w)
			samples = append(samples, time.Since(start))
			size = c.Size()
		}
		med, fastest := summarize(samples)
		b.Solvers = append(b.Solvers, SolverTiming{
			Solver: v.solver, Mode: v.mode, Workers: v.w,
			MedianNs: int64(med), MinNs: int64(fastest), CoverSize: size,
		})
		if medians[v.solver] == nil {
			medians[v.solver] = map[string]int64{}
		}
		medians[v.solver][v.mode] = int64(med)
	}
	for solver, m := range medians {
		if m["parallel"] > 0 {
			b.Speedup[solver] = float64(m["serial"]) / float64(m["parallel"])
		}
	}
	b.Counters = reg.Snapshot().Counters
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// summarize returns the median and minimum of samples.
func summarize(samples []time.Duration) (med, fastest time.Duration) {
	sorted := append([]time.Duration(nil), samples...)
	for i := 1; i < len(sorted); i++ { // insertion sort: n is tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2], sorted[0]
}
