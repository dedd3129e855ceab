package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestMetricsJSONGolden locks the GET /metrics response byte-for-byte
// against testdata/metrics.golden: the obs-backed counters must keep the
// exact JSON shape the bespoke atomics produced. The workload is fully
// deterministic (serial fan-out, fixed posts, one exact duplicate).
// Regenerate intentionally with
//
//	go test ./internal/server -run TestMetricsJSONGolden -update
func TestMetricsJSONGolden(t *testing.T) {
	s := newServer(t, Config{DupDistance: 3, DupWindow: 16})
	if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 60, Tau: 10, Algorithm: "streamscan+"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(SubscriptionConfig{Topics: politicsTopics(), Lambda: 30, Tau: 0, Algorithm: "instant"}); err != nil {
		t.Fatal(err)
	}
	posts := []Post{
		{ID: 1, Time: 0, Text: "obama speaks tonight"},
		{ID: 2, Time: 5, Text: "irrelevant chatter about lunch"},
		{ID: 3, Time: 20, Text: "senate votes on the bill"},
		{ID: 4, Time: 21, Text: "senate votes on the bill"},
		{ID: 5, Time: 30, Text: "obama responds to the senate"},
		{ID: 6, Time: 200, Text: "president heads to camp david"},
	}
	for _, p := range posts {
		if err := ingestPost(s, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("GET /metrics drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, body, want)
	}
}

// TestDocsNameOnlyExistingMetrics: every full metric name README.md and
// docs/ARCHITECTURE.md mention is one the server exports, per
// testdata/prometheus_names.golden, so a deleted or renamed instrument
// cannot linger in the docs. A histogram's _bucket, _sum and _count series
// count as its name. Template prefixes (mqdp_slo_<name>_…) end in "_" and
// are skipped; "..._" abbreviations carry no mqdp_ prefix.
func TestDocsNameOnlyExistingMetrics(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "prometheus_names.golden"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, kind, _ := strings.Cut(line, " ")
		kinds[name] = kind
	}
	exists := func(name string) bool {
		if _, ok := kinds[name]; ok {
			return true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
				return true
			}
		}
		return false
	}
	metricName := regexp.MustCompile(`\bmqdp_[a-z0-9_]+`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range metricName.FindAllString(line, -1) {
				if !strings.HasSuffix(name, "_") && !exists(name) {
					t.Errorf("%s:%d names %s, which the server does not export", doc, i+1, name)
				}
			}
		}
	}
}
