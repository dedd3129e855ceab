package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mqdp/internal/obs"
)

// sampleLine matches one exposition sample: a metric name, an optional
// {le="..."} label set, a float value, and an optional OpenMetrics-style
// exemplar (` # {trace_id="..."} <value>`) on +Inf bucket lines.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [-+0-9.eE]+(Inf)?( # \{trace_id="[0-9a-f]{32}"\} [-+0-9.eE]+(Inf)?)?$`)

// exposition is one parsed GET /metrics/prometheus body.
type exposition struct {
	types   map[string]string  // metric name → TYPE
	samples map[string]float64 // sample name (with _bucket/_sum/_count suffix, le label kept) → value
	lines   map[string]string  // same keys → the raw line
}

func scrapePrometheus(t *testing.T, url string) exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prometheus = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	e := exposition{types: map[string]string{}, samples: map[string]float64{}, lines: map[string]string{}}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			e.types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		key, rest, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		e.samples[key] = v
		e.lines[key] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPrometheusEndpointE2E builds two servers, each owning its registry,
// with no other wiring, drives only A over HTTP, and checks that every
// instrument lives with the server that owns it: A's decision-delay
// histogram counts exactly A's emissions and carries the traced ingest's
// exemplar, B's stays empty, and no solver or index instrument appears.
// The metric-name set of a fresh server is pinned in
// testdata/prometheus_names.golden; regenerate it intentionally with
//
//	go test ./internal/server -run TestPrometheusEndpointE2E -update
func TestPrometheusEndpointE2E(t *testing.T) {
	newObserved := func() string {
		reg := obs.NewRegistry()
		reg.SetTracer(obs.NewTracer(64))
		ts, _ := newTestServerWith(t, Config{Obs: reg})
		return ts.URL
	}
	a, b := newObserved(), newObserved()
	fresh := scrapePrometheus(t, b)

	post := func(path, traceparent, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, a+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}
	// Post 2's arrival fires post 1's deadline (τ = 5) inside the traced
	// request; the flush emits post 2 untraced.
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	post("/subscriptions", "", `{"topics":[{"Name":"obama","Keywords":[{"Text":"obama","Weight":1}]}],"lambda":30,"tau":5}`)
	post("/ingest", "00-"+traceID+"-00f067aa0ba902b7-01", `[{"id":1,"time":0,"text":"obama speaks"},{"id":2,"time":50,"text":"obama again"}]`)
	post("/flush", "", ``)

	ea, eb := scrapePrometheus(t, a), scrapePrometheus(t, b)

	// All three instrument kinds appear.
	for name, kind := range map[string]string{
		"mqdp_stream_decision_delay_seconds": "histogram",
		"mqdp_server_ingested_total":         "counter",
		"mqdp_server_subscriptions":          "gauge",
		"mqdp_server_ingest_batch_seconds":   "histogram",
	} {
		if got := ea.types[name]; got != kind {
			t.Errorf("metric %s: TYPE = %q, want %q", name, got, kind)
		}
	}
	for _, name := range []string{"mqdp_server_ingest_batch_seconds_sum", "mqdp_server_ingest_batch_seconds_count"} {
		if _, ok := ea.samples[name]; !ok {
			t.Errorf("missing sample %s", name)
		}
	}

	// The delay histogram counts A's delivered emissions, and only A's.
	const delayCount = "mqdp_stream_decision_delay_seconds_count"
	if got, want := ea.samples[delayCount], ea.samples["mqdp_server_emitted_total"]; got != want || got != 2 {
		t.Errorf("A: %s = %v, mqdp_server_emitted_total = %v, want both 2", delayCount, got, want)
	}
	if got, ok := eb.samples[delayCount]; !ok || got != 0 {
		t.Errorf("B: %s = %v (present %v), want 0: servers share an instrument", delayCount, got, ok)
	}

	// The traced ingest's emission is the histogram's exemplar.
	inf := ea.lines[`mqdp_stream_decision_delay_seconds_bucket{le="+Inf"}`]
	if want := fmt.Sprintf(`# {trace_id=%q} 5`, traceID); !strings.HasSuffix(inf, want) {
		t.Errorf("+Inf bucket line %q does not end in exemplar %q", inf, want)
	}

	// Leaf packages observe nothing.
	for _, e := range []exposition{ea, eb} {
		for name := range e.types {
			if strings.HasPrefix(name, "mqdp_core_") || strings.HasPrefix(name, "mqdp_index_") {
				t.Errorf("exposition carries leaf-package metric %s", name)
			}
		}
	}

	// A fresh server's metric names and kinds, sorted.
	var names []string
	for name, kind := range fresh.types {
		names = append(names, name+" "+kind)
	}
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	path := filepath.Join("testdata", "prometheus_names.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metric names drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
