package server

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/index"
	"mqdp/internal/obs"
	"mqdp/internal/stream"
)

// sampleLine matches one exposition sample: a metric name, an optional
// {le="..."} label set, a float value, and an optional OpenMetrics-style
// exemplar (` # {trace_id="..."} <value>`) on +Inf bucket lines.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [-+0-9.eE]+(Inf)?( # \{trace_id="[0-9a-f]{32}"\} [-+0-9.eE]+(Inf)?)?$`)

// TestPrometheusEndpointE2E wires one registry through every instrumented
// layer, drives a workload over HTTP, and asserts GET /metrics/prometheus
// emits a parseable exposition covering core, stream, index and server
// instruments of all three kinds.
func TestPrometheusEndpointE2E(t *testing.T) {
	reg := obs.NewRegistry()
	core.SetObs(reg)
	stream.SetObs(reg)
	index.SetObs(reg)
	defer func() {
		core.SetObs(nil)
		stream.SetObs(nil)
		index.SetObs(nil)
	}()

	s := newServer(t, Config{Parallelism: 1, Obs: reg})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}
	post("/subscriptions", `{"topics":[{"Name":"obama","Keywords":[{"Text":"obama","Weight":1}]}],"lambda":30,"tau":5}`)
	post("/ingest", `[{"id":1,"time":0,"text":"obama speaks"},{"id":2,"time":50,"text":"obama again"}]`)
	post("/flush", ``)

	// The server itself does not drive the inverted index or the batch
	// solvers; touch both directly so their instruments carry observations.
	ix := index.New()
	if err := ix.Add(index.Doc{ID: 1, Time: 0, Text: "obama speaks tonight"}); err != nil {
		t.Fatal(err)
	}
	ix.TermQuery("obama", 0, 10)
	in, err := core.NewInstance([]core.Post{
		{ID: 1, Value: 0, Labels: []core.Label{0}},
		{ID: 2, Value: 10, Labels: []core.Label{0}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.ScanParallel(core.FixedLambda(5), 1)

	resp, err := http.Get(srv.URL + "/metrics/prometheus")
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

	types := map[string]string{} // metric name → TYPE
	samples := map[string]bool{} // sample names seen (with _bucket/_sum/_count suffixes)
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
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		samples[line[:strings.IndexAny(line, "{ ")]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Every layer contributes, and all three instrument kinds appear.
	wantTyped := map[string]string{
		"mqdp_core_scan_sweep_seconds":       "histogram",
		"mqdp_core_posts_scanned_total":      "counter",
		"mqdp_stream_decision_delay_seconds": "histogram",
		"mqdp_index_append_seconds":          "histogram",
		"mqdp_index_segments":                "gauge",
		"mqdp_server_ingested_total":         "counter",
		"mqdp_server_subscriptions":          "gauge",
		"mqdp_server_match_seconds":          "histogram",
	}
	for name, kind := range wantTyped {
		if got := types[name]; got != kind {
			t.Errorf("metric %s: TYPE = %q, want %q", name, got, kind)
		}
	}
	for _, name := range []string{
		"mqdp_server_ingested_total",
		"mqdp_server_match_seconds_bucket",
		"mqdp_server_match_seconds_sum",
		"mqdp_server_match_seconds_count",
		"mqdp_stream_decision_delay_seconds_count",
		"mqdp_index_append_seconds_count",
		"mqdp_core_scan_sweep_seconds_count",
	} {
		if !samples[name] {
			t.Errorf("missing sample %s", name)
		}
	}
}
