package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// deterministic are the per-layer counts that depend on the inputs alone.
var deterministic = []string{
	"route.candidates_per_post", "match.matched_per_post", "stream.emitted_per_matched",
	"simhash.dropped_share", "wal.bytes_per_post",
}

// TestSmoke runs every workload at smoke scale against a real server
// subprocess: twice traced on one seed, once untraced on another.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server subprocesses")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cleanup(root) })
	bin, build, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(sp *spec, seed int64, trace bool) *runConfig {
		return &runConfig{spec: sp, scale: scaleSmoke, seed: seed, seconds: 0.5, trace: trace, root: root, bin: bin, buildS: build.Seconds(), log: io.Discard}
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, err := run(cfg(sp, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(cfg(sp, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				m, ok := a.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("traced run: metric %s = %+v, want unit %q", d.name, m, d.unit)
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(a.Metrics), len(perLayer))
			}
			for _, name := range deterministic {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if v := a.Metrics["wal.bytes_per_post"].Value; (v > 0) != sp.durable {
				t.Errorf("wal.bytes_per_post = %v on a workload with durable=%v", v, sp.durable)
			}
			if _, err := os.Stat(filepath.Join(outDir(root), "trace-"+sp.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			c, err := run(cfg(sp, 2, false))
			if err != nil {
				t.Fatalf("seed 2: %v", err)
			}
			if !c.Correct || c.Attempted < 1 || c.Failed != 0 {
				t.Errorf("seed 2: correct=%v attempted=%d failed=%d", c.Correct, c.Attempted, c.Failed)
			}
			for _, d := range endToEnd {
				m, ok := c.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("untraced run: metric %s = %+v, want a positive value in %q", d.name, m, d.unit)
				}
			}
			if len(c.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(c.Metrics), len(endToEnd))
			}
		})
	}
}

// TestOracleCatchesADroppedEmission perturbs the reference by one emission
// and requires the run to fail on it.
func TestOracleCatchesADroppedEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server subprocess")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cleanup(root) })
	bin, _, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(&runConfig{spec: specs[0], scale: scaleSmoke, seed: 1, seconds: 0.5, root: root, bin: bin, log: io.Discard, dropExpected: true})
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("run with a perturbed reference returned %v, want an oracle mismatch", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads, harness has %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q, harness has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, harness has %d and %d", len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bm.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
		}
		seen[m.Name] = true
	}
	for i, m := range bm.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRe.MatchString(name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", name)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := spread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu ...float64) string {
		f := resultFile{}
		for _, v := range cpu {
			f.Runs = append(f.Runs, &runResult{Workload: "dense_instant", Metrics: map[string]metric{"server_cpu_us_per_post": {v, "us"}}})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, &f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		cpu  []float64
		want int
	}{
		{"same", []float64{100, 100, 101, 99}, 0},
		{"better", []float64{80, 80, 81, 79}, 0},
		{"regressed", []float64{130, 130, 131, 129}, 1},
		{"unresolved", []float64{50, 150, 100, 101}, 1},
	} {
		stdout := os.Stdout
		os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		got := compareMain([]string{base, write(tc.name+".json", tc.cpu...)})
		os.Stdout = stdout
		if got != tc.want {
			t.Errorf("%s: compare returned %d, want %d", tc.name, got, tc.want)
		}
	}
}
