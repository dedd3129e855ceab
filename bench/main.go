// Command bench is the repository's benchmark: it builds ./cmd/mqdp-server,
// runs it as a subprocess on a real TCP listener with its default flags,
// drives it over two connections (one producer, one SSE subscriber), checks
// what it delivered against a reference pipeline, and prints every metric
// by name with its unit. See README.md.
//
//	bash bench/run.sh                                  every workload, untraced then traced
//	bash bench/run.sh -workload sparse_fanout -seed 7 -trace 0
//	bash bench/run.sh -runs 10 -trace 0 -out a.json    ten seeds per workload, one result file
//	bash bench/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// defaultSeconds is the measured time of one run: ten seconds paced, six of
// saturation. BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 16

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env     environment  `json:"env"`
	Scale   string       `json:"scale"`
	Seconds float64      `json:"seconds"`
	Seed    int64        `json:"seed"`
	Runs    []*runResult `json:"runs"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 42, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run: 5/8 open-loop, 3/8 closed-loop")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics, 1 = per-layer metrics, -1 = one run of each")
	scaleName := flag.String("scale", "full", "full or smoke")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "result file (default bench/out/result.json)")
	flag.Parse()

	// The reference box has two cores and the generator is sized for them.
	runtime.GOMAXPROCS(2)

	var sc scale
	switch *scaleName {
	case "full":
		sc = scaleFull
	case "smoke":
		sc = scaleSmoke
	default:
		return fail("unknown -scale %q", *scaleName)
	}
	var todo []*spec
	if *workload == "all" {
		todo = specs
	} else if sp := specByName(*workload); sp != nil {
		todo = []*spec{sp}
	} else {
		return fail("unknown -workload %q", *workload)
	}
	if *seconds <= 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		return fail("-seconds and -runs must be positive, -trace one of -1, 0, 1")
	}

	root, err := repoRoot()
	if err != nil {
		return fail("%v", err)
	}
	defer cleanup(root)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup(root)
		os.Exit(130)
	}()

	bin, buildTime, err := buildServer(root)
	if err != nil {
		return fail("%v", err)
	}
	file := &resultFile{Env: readEnv(root), Scale: sc.name, Seconds: *seconds, Seed: *seed}
	traces := []bool{*trace == 1}
	if *trace == -1 {
		traces = []bool{false, true}
	}
	var last *runResult
	for _, sp := range todo {
		for i := 0; i < *runs; i++ {
			for _, tr := range traces {
				cfg := &runConfig{
					spec: sp, scale: sc, seed: *seed + int64(i), seconds: *seconds, trace: tr,
					root: root, bin: bin, buildS: buildTime.Seconds(), log: os.Stderr,
				}
				res, err := run(cfg)
				if err != nil {
					return fail("%s seed %d: %v", sp.name, cfg.seed, err)
				}
				report(res)
				file.Runs = append(file.Runs, res)
				last = res
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir(root), "result.json")
	}
	if err := writeResults(path, file); err != nil {
		return fail("%v", err)
	}
	// The last line of standard output is the run the driver asked for.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	return 1
}

// cleanup kills every server still running and removes this process's
// temporary data directories. It runs on every exit path.
func cleanup(root string) {
	killAll()
	dirs, _ := filepath.Glob(filepath.Join(outDir(root), "tmp", fmt.Sprintf("*-%d-*", selfPid)))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func writeResults(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints one run for a reader: every metric by name with its unit,
// the sample count behind each percentile, and any flag raised.
func report(res *runResult) {
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	kind := "end-to-end"
	defs := endToEnd
	if res.Trace == 1 {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "\n%s seed %d, %s (attempted %d, failed %d, oracle ok)\n", res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	notMeasured := map[string]bool{}
	for _, n := range res.NotMeasured {
		notMeasured[n] = true
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		value := fmt.Sprintf("%.6g", m.Value)
		if notMeasured[d.name] {
			value = "not_measured"
		}
		note := ""
		switch {
		case strings.HasPrefix(d.name, "deliver_"):
			note = fmt.Sprintf("n=%d", res.Samples["deliver"])
		case strings.HasPrefix(d.name, "ack_"), strings.HasPrefix(d.name, "loadgen.send_late"):
			note = fmt.Sprintf("n=%d", res.Samples["ack"])
		case d.name == "server.subscribe_ms_p50":
			note = fmt.Sprintf("n=%d", res.Samples["subscribe"])
		case d.name == "server.poll_ms_p50":
			note = fmt.Sprintf("n=%d", res.Samples["poll"])
		}
		fmt.Fprintf(w, "  %s\t%s\t%s\t%s\n", d.name, value, m.Unit, note)
	}
	if res.Trace == 0 && res.Info["recovery_s"] > 0 {
		fmt.Fprintf(w, "  recovery_s\t%.6g\ts\tkill -9, restart, verified again\n", res.Info["recovery_s"])
	}
	fmt.Fprintf(w, "  (paced %.2fs, saturation %.2fs, reference %.2fs, generator CPU %.2f of a core)\n",
		res.Info["paced_s"], res.Info["saturation_s"], res.Info["reference_s"], res.Info["loadgen_cpu_share"])
	if len(res.Flags) > 0 {
		fmt.Fprintf(w, "  flags: %s\n", strings.Join(res.Flags, ", "))
	}
	w.Flush()
}
