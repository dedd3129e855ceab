package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches one exposition sample: name, optional {le="..."} label
// set, a value, and an optional exemplar suffix on +Inf bucket lines.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (-?[0-9.eE+Inf]+)( # \{trace_id="[0-9a-f]{32}"\} -?[0-9.eE+Inf]+)?$`)

func buildSampleRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("mqdp_test_things_total", "things done")
	c.Add(3)
	g := r.Gauge("mqdp_test_level", "current level")
	g.Set(1.5)
	h := r.Histogram("mqdp_test_lat_seconds", "latency with \\ and\nnewline", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	return r
}

// TestWritePrometheusFormat parses the exposition line by line: every sample
// matches the text format grammar, every metric has a TYPE header (and a HELP
// header when help was given), histogram buckets are cumulative and ordered,
// and _count agrees with the +Inf bucket.
func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSampleRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	types := map[string]string{}
	helps := map[string]string{}
	var samples []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			types[f[0]] = f[1]
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helps[f[0]] = f[1]
		default:
			if !sampleLine.MatchString(line) {
				t.Fatalf("line does not match the exposition grammar: %q", line)
			}
			samples = append(samples, line)
		}
	}
	if types["mqdp_test_things_total"] != "counter" ||
		types["mqdp_test_level"] != "gauge" ||
		types["mqdp_test_lat_seconds"] != "histogram" {
		t.Fatalf("TYPE headers wrong: %v", types)
	}
	if !strings.Contains(helps["mqdp_test_lat_seconds"], `\\`) || !strings.Contains(helps["mqdp_test_lat_seconds"], `\n`) {
		t.Fatalf("HELP not escaped: %q", helps["mqdp_test_lat_seconds"])
	}

	wantSamples := map[string]string{
		`mqdp_test_things_total`:                  "3",
		`mqdp_test_level`:                         "1.5",
		`mqdp_test_lat_seconds_bucket{le="0.1"}`:  "1",
		`mqdp_test_lat_seconds_bucket{le="1"}`:    "2",
		`mqdp_test_lat_seconds_bucket{le="+Inf"}`: "3",
		`mqdp_test_lat_seconds_count`:             "3",
	}
	got := map[string]string{}
	for _, s := range samples {
		i := strings.LastIndexByte(s, ' ')
		got[s[:i]] = s[i+1:]
	}
	for k, want := range wantSamples {
		if got[k] != want {
			t.Errorf("sample %s = %q, want %q", k, got[k], want)
		}
	}
	if sum, err := strconv.ParseFloat(got["mqdp_test_lat_seconds_sum"], 64); err != nil || sum != 2.55 {
		t.Errorf("histogram sum = %q, want 2.55", got["mqdp_test_lat_seconds_sum"])
	}
	// Deterministic: a second write is byte-identical.
	var again bytes.Buffer
	r2 := buildSampleRegistry()
	if err := r2.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("exposition is not deterministic across identical registries")
	}
}
