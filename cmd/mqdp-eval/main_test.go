package main

import (
	"bytes"
	"strings"
	"testing"
)

const evalInput = `{"id":1,"value":0,"labels":["a"]}
{"id":2,"value":1,"labels":["a"]}
{"id":3,"value":2,"labels":["a","c"]}
{"id":4,"value":3,"labels":["c"]}
{"id":5,"value":20,"labels":["a"]}
`

func TestRunReportsAllAlgorithms(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(evalInput), &out, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"OPT:", "BucketThinning", "Scan", "Scan+", "GreedySC",
		"StreamScan", "StreamGreedySC+", "Instant", "rel.err", "max delay",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// With -opt the relative errors must be numeric, not "-".
	if strings.Count(report, " -\n") == strings.Count(report, "\n") {
		t.Errorf("no relative errors computed:\n%s", report)
	}
}

func TestRunWithoutOPT(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(evalInput), &out, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "OPT:") {
		t.Errorf("OPT ran without -opt:\n%s", out.String())
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("{nope"), &out, 1, 1, false); err == nil {
		t.Error("broken input accepted")
	}
}
